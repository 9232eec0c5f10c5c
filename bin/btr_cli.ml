(* btr — command-line front end for the BTR library.

   `plan` prints ADMITTED or REJECTED from the static verifier, the
   same verdict `check` reports. `run --script` takes fault scripts in
   the campaign codec (see `campaign replay --script`).

   Examples:
     btr plan  --workload avionics --nodes 6 -f 1 -r 200
     btr check --workload avionics --nodes 6 -f 1 -r 200 --json
     btr run   --workload scada --nodes 5 -f 1 -r 300 \
               --script 'corrupt@3@250000' --horizon 2000
     btr workloads *)

open Btr_util
open Cmdliner
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Planner = Btr_planner.Planner
module Check = Btr_check.Check
module Incr = Btr_check.Incr
module Campaign = Btr_campaign.Campaign
module Orchestrate = Btr_campaign.Orchestrate

(* Observability plumbing shared by `run` and the default demo. *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Stream every telemetry event to $(docv) as JSON lines.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write the metric registry (counters/gauges) to $(docv) as JSON.")

(* Build the context the deployment reports through, run [k] with it,
   then flush the sinks. --metrics without --trace still needs a fresh
   context so the counters are not shared with unrelated runs. *)
let with_obs ~trace ~metrics k =
  try
    let oc = Option.map open_out trace in
    let obs =
      match oc with
      | Some oc -> Some (Btr_obs.Obs.with_jsonl oc)
      | None -> Option.map (fun _ -> Btr_obs.Obs.create ()) metrics
    in
    let code = k obs in
    Option.iter
      (fun obs ->
        Btr_obs.Obs.flush obs;
        Option.iter
          (fun file ->
            let mc = open_out file in
            output_string mc (Btr_obs.Obs.metrics_json obs);
            output_char mc '\n';
            close_out mc)
          metrics)
      obs;
    Option.iter close_out oc;
    code
  with Sys_error m ->
    Printf.eprintf "error: %s\n" m;
    1

let report rt ~r =
  let m = Btr.Runtime.metrics rt in
  Format.printf "%a@." Btr.Metrics.pp_summary m;
  List.iter
    (fun (t, node, mode) ->
      Format.printf "t=%a: node %d -> mode {%s}@." Time.pp t node
        (String.concat "," (List.map string_of_int mode)))
    (Btr.Runtime.mode_changes rt);
  List.iteri
    (fun i rec_t ->
      Format.printf "fault %d recovery: %a (R = %dms)@." (i + 1) Time.pp rec_t r)
    (Btr.Metrics.recovery_times m)

(* Common options *)
let workload_arg =
  Arg.(value & opt string "avionics" & info [ "workload"; "w" ] ~doc:"Workload: avionics, scada or random.")

let topology_arg =
  Arg.(value & opt string "clique" & info [ "topology"; "t" ] ~doc:"Topology: clique, ring or dual-bus.")

let nodes_arg = Arg.(value & opt int 6 & info [ "nodes"; "n" ] ~doc:"Number of nodes.")
let f_arg = Arg.(value & opt int 1 & info [ "f" ] ~doc:"Fault bound.")
let r_arg = Arg.(value & opt int 200 & info [ "r" ] ~doc:"Recovery bound R in ms.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed.")

(* The workload and topology named on the command line; an [Error] is
   bad input (exit 2), not a failed check. So is a system too large to
   plan at fault bound [f]. *)
let system_of_names workload topology ~nodes ~f ~seed =
  match Campaign.workload_of_name workload ~nodes ~seed with
  | Error m -> Error m
  | Ok g -> (
    match Planner.check_plan_size ~nodes ~f ~tasks:(Graph.task_count g) with
    | Error m -> Error m
    | Ok () ->
      Result.map
        (fun topo -> (g, topo))
        (Campaign.topology_of_name topology ~nodes ~bandwidth_bps:10_000_000))

(* [Error (exit code, message)]: 2 for bad input, 1 when the planner
   finds no strategy. *)
let build_strategy workload topology nodes f r seed =
  match system_of_names workload topology ~nodes ~f ~seed with
  | Error m -> Error (2, m)
  | Ok (g, topo) -> (
    let cfg = Planner.default_config ~f ~recovery_bound:(Time.ms r) in
    match Planner.build cfg g topo with
    | Ok s -> Ok (g, topo, s)
    | Error e -> Error (1, Format.asprintf "%a" Planner.pp_error e))

let print_error (code, m) =
  Printf.eprintf "error: %s\n" m;
  code

let plan_cmd =
  let doc = "Compute and summarize an offline BTR strategy." in
  let run workload topology nodes f r seed verbose =
    match build_strategy workload topology nodes f r seed with
    | Error e -> print_error e
    | Ok (_, _, s) ->
      let st = Planner.stats s in
      Printf.printf
        "strategy: %d modes, %d transitions, planned in %.1fms\n\
         worst-case recovery bound: %s (requested R = %dms) -> %s\n"
        st.Planner.modes st.Planner.transitions
        (st.Planner.planning_seconds *. 1e3)
        (Time.to_string st.Planner.worst_recovery)
        r
        (if Check.passed (Check.verify s) then "ADMITTED" else "REJECTED");
      if verbose then
        List.iter
          (fun (p : Planner.plan) ->
            Format.printf "@.mode {%s}%s:@.%a@."
              (String.concat "," (List.map string_of_int p.Planner.faulty))
              (match p.Planner.shed_below with
              | None -> ""
              | Some c -> Format.asprintf " (shed below %a)" Task.pp_criticality c)
              Btr_sched.Schedule.pp p.Planner.schedule)
          (Planner.all_plans s);
      0
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every mode's schedule.")
  in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(
      const run $ workload_arg $ topology_arg $ nodes_arg $ f_arg $ r_arg
      $ seed_arg $ verbose)

let run_cmd =
  let doc = "Deploy a strategy on the simulator and inject faults." in
  let run workload topology nodes f r seed script horizon_ms trace metrics =
    match
      Result.bind (Campaign.script_of_string script) (fun faults ->
          Result.map (fun () -> faults) (Campaign.validate_script ~nodes faults))
    with
    | Error m -> print_error (2, m)
    | Ok faults -> (
      match build_strategy workload topology nodes f r seed with
      | Error e -> print_error e
      | Ok (g, _, _) when Time.ms horizon_ms < Graph.period g ->
        print_error
          ( 2,
            Printf.sprintf "--horizon %dms is shorter than one workload period (%s)"
              horizon_ms
              (Time.to_string (Graph.period g)) )
      | Ok (g, topo, strategy) ->
        with_obs ~trace ~metrics (fun obs ->
            match Btr.Scenario.admit ?obs strategy with
            | Error e ->
              Format.eprintf "error: %a@." Planner.pp_error e;
              1
            | Ok strategy ->
              let s =
                Btr.Scenario.spec ~workload:g ~topology:topo ~f
                  ~recovery_bound:(Time.ms r) ~script:faults
                  ~horizon:(Time.ms horizon_ms) ~seed ?obs ()
              in
              let rt = Btr.Scenario.deploy s strategy in
              Btr.Runtime.run rt ~horizon:s.Btr.Scenario.horizon;
              report rt ~r;
              0))
  in
  let script =
    Arg.(
      value & opt string ""
      & info [ "script" ] ~docv:"SCRIPT"
          ~doc:
            "Faults to inject, in the campaign codec: class[.param]@node@at_us \
             joined with ';', e.g. 'corrupt@3@250000;delay.8000@1@400000'.")
  in
  let horizon =
    Arg.(
      value & opt int 1000
      & info [ "horizon" ] ~doc:"Simulated run length in ms, at least one workload period.")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ workload_arg $ topology_arg $ nodes_arg $ f_arg $ r_arg
      $ seed_arg $ script $ horizon $ trace_arg $ metrics_arg)

(* Exit codes: 0 ok, 1 a failed check or rejected trial, 2 a usage
   error or bad input (an unreadable or malformed file), 3 a Def-3.1
   violation. *)
let input_error m = print_error (2, m)

let read_lines file =
  try Ok (In_channel.with_open_text file In_channel.input_lines)
  with Sys_error m -> Error m

(* Replay an edit script against the incremental verifier: one edit per
   line in Incr.parse_edit syntax, blank lines and #-comments skipped.
   Each applied edit reports the diagnostics that appeared/disappeared;
   the final report is identical to a from-scratch `btr check` of the
   edited system. *)
let check_delta workload topology nodes f r seed json file =
  match system_of_names workload topology ~nodes ~f ~seed with
  | Error m -> input_error m
  | Ok (g, topo) -> (
    let cfg = Planner.default_config ~f ~recovery_bound:(Time.ms r) in
    match Incr.init cfg g topo with
    | Error e -> print_error (1, Format.asprintf "%a" Planner.pp_error e)
    | Ok st0 -> (
      match read_lines file with
      | Error m -> input_error m
      | Ok lines ->
        let st = ref st0 and line_no = ref 0 and failed = ref None in
        List.iter
          (fun line ->
            incr line_no;
            let line = String.trim line in
            if !failed = None && line <> "" && line.[0] <> '#' then
              match Incr.parse_edit line with
              | Error m ->
                failed := Some (2, Printf.sprintf "%s:%d: %s" file !line_no m)
              | Ok edit -> (
                match Incr.apply !st edit with
                | Error e ->
                  (* an edit that does not apply is bad input; an
                     edited system with no strategy is a failed check *)
                  let code = match e with Incr.Invalid_edit _ -> 2 | Incr.Plan_failed _ -> 1 in
                  failed :=
                    Some
                      ( code,
                        Format.asprintf "%s:%d: %a" file !line_no
                          Incr.pp_apply_error e )
                | Ok (st', delta) ->
                  st := st';
                  if not json then
                    Format.printf "@[<v2>%d: %s@,%a@]@." !line_no
                      (Incr.edit_to_string edit) Incr.pp_report_delta delta))
          lines;
        (match !failed with
        | Some e -> print_error e
        | None ->
          let report = Incr.report !st in
          if json then print_endline (Check.report_to_json report)
          else begin
            let s = Incr.memo_stats !st in
            let hits =
              s.Incr.reserve_hits + s.Incr.sched_hits + s.Incr.evb_hits
              + s.Incr.cuts_hits
            and misses =
              s.Incr.reserve_misses + s.Incr.sched_misses + s.Incr.evb_misses
              + s.Incr.cuts_misses
            in
            Format.printf "memo: %d hits, %d misses over the script@.%a@."
              hits misses Check.pp_report report
          end;
          if Check.passed report then 0 else 1)))

let check_cmd =
  let doc =
    "Statically verify a strategy's recovery obligations (Definition 3.1)."
  in
  let run workload topology nodes f r seed json list_codes delta trace metrics =
    if list_codes then begin
      List.iter
        (fun c ->
          Printf.printf "%s %-7s %s\n" (Check.code_id c)
            (Check.severity_name (Check.severity_of c))
            (Check.describe c))
        Check.all_codes;
      0
    end
    else
      match delta with
      | Some file -> check_delta workload topology nodes f r seed json file
      | None -> (
      match build_strategy workload topology nodes f r seed with
      | Error e -> print_error e
      | Ok (_, _, s) ->
        with_obs ~trace ~metrics (fun obs ->
            let report = Check.verify ?obs s in
            if json then print_endline (Check.report_to_json report)
            else Format.printf "%a@." Check.pp_report report;
            if Check.passed report then 0 else 1))
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as one JSON object.")
  in
  let list_codes =
    Arg.(
      value & flag
      & info [ "codes" ] ~doc:"List every diagnostic code and exit.")
  in
  let delta =
    Arg.(
      value
      & opt (some string) None
      & info [ "delta" ] ~docv:"FILE"
          ~doc:
            "Replay the edit script in $(docv) (one edit per line, e.g. \
             'retune-flow 3 size=128'; blank lines and # comments skipped) \
             through the incremental verifier, reporting per-edit diagnostic \
             deltas and the final report.")
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ workload_arg $ topology_arg $ nodes_arg $ f_arg $ r_arg
      $ seed_arg $ json $ list_codes $ delta $ trace_arg $ metrics_arg)

let workloads_cmd =
  let doc = "List built-in workloads and show their structure." in
  let run nodes seed =
    List.iter
      (fun name ->
        match Campaign.workload_of_name name ~nodes ~seed with
        | Ok g -> Format.printf "-- %s --@.%a@." name Graph.pp g
        | Error m -> Format.printf "-- %s --@.(%s)@." name m)
      Campaign.known_workloads;
    0
  in
  Cmd.v (Cmd.info "workloads" ~doc) Term.(const run $ nodes_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* campaign run | replay | report                                      *)

(* Campaign CLI errors are usage errors: exit 2, like cmdliner's own. *)
let usage_error m =
  Printf.eprintf "btr campaign: %s\n" m;
  2

let rec map_result f = function
  | [] -> Ok []
  | x :: xs -> (
    match f x with
    | Error _ as e -> e
    | Ok y -> ( match map_result f xs with Error _ as e -> e | Ok ys -> Ok (y :: ys)))

let grid_of workloads topologies node_counts fault_bounds r_ms bandwidths protects
    shares classes =
  match map_result Campaign.criticality_of_name protects with
  | Error m -> Error m
  | Ok protect_levels -> (
    match map_result Campaign.share_of_name shares with
    | Error m -> Error m
    | Ok control_shares -> (
      let g =
        {
          Campaign.workloads;
          topologies;
          node_counts;
          fault_bounds;
          recovery_bounds = List.map Time.ms r_ms;
          bandwidths;
          protect_levels;
          control_shares;
          classes;
        }
      in
      match Campaign.validate_grid g with Error m -> Error m | Ok () -> Ok g))

let write_lines file lines =
  let oc = open_out file in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

(* Grid axes: each option takes a comma-separated list and the campaign
   crosses them. *)
let list_opt ~names ~default ~docv ~doc cv =
  Arg.(value & opt (list cv) default & info names ~docv ~doc)

(* The grid-axis option set, shared by `campaign run` (the cross
   product it executes) and `campaign frontier` (the config slices it
   bisects). Evaluates to the parsed-and-validated grid. *)
let grid_args =
  let workloads =
    list_opt ~names:[ "workload"; "w" ] ~default:[ "avionics" ] ~docv:"LIST"
      ~doc:"Workloads to cross: avionics, scada, random." Arg.string
  in
  let topologies =
    list_opt ~names:[ "topology"; "t" ] ~default:[ "clique" ] ~docv:"LIST"
      ~doc:"Topologies to cross: clique, ring, dual-bus." Arg.string
  in
  let node_counts =
    list_opt ~names:[ "nodes"; "n" ] ~default:[ 6 ] ~docv:"LIST"
      ~doc:"Node counts to cross." Arg.int
  in
  let fault_bounds =
    list_opt ~names:[ "f" ] ~default:[ 1 ] ~docv:"LIST" ~doc:"Fault bounds to cross."
      Arg.int
  in
  let r_ms =
    list_opt ~names:[ "r" ] ~default:[ 200 ] ~docv:"LIST"
      ~doc:"Recovery bounds R in ms to cross." Arg.int
  in
  let bandwidths =
    list_opt ~names:[ "bandwidth" ] ~default:[ 10_000_000 ] ~docv:"LIST"
      ~doc:"Link bandwidths in bits/s to cross." Arg.int
  in
  let protects =
    list_opt ~names:[ "protect" ] ~default:[ "medium" ] ~docv:"LIST"
      ~doc:"Protect levels to cross: best-effort, low, medium, high, safety-critical."
      Arg.string
  in
  let shares =
    list_opt ~names:[ "control-share" ] ~default:[ "default" ] ~docv:"LIST"
      ~doc:"Control bandwidth shares to cross: floats in (0, 0.6], or 'default'."
      Arg.string
  in
  let classes =
    list_opt ~names:[ "classes" ] ~default:Campaign.known_classes ~docv:"LIST"
      ~doc:
        "Fault classes the schedule generator may draw: crash, omit, omitto, \
         delay, corrupt, equivocate, babble. Restricting the list focuses the \
         campaign (e.g. --classes omitto for selective-omission conformance)."
      Arg.string
  in
  Term.(
    const grid_of $ workloads $ topologies $ node_counts $ fault_bounds $ r_ms
    $ bandwidths $ protects $ shares $ classes)

let load_artifact file =
  Result.bind (read_lines file) (fun lines ->
      Result.map_error (Printf.sprintf "%s: %s" file) (Orchestrate.parse_artifact lines))

let json_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the JSONL artifact to $(docv) ('-' for stdout).")

let campaign_run_cmd =
  let doc = "Run a randomized fault-injection campaign over a parameter grid." in
  let run grid_r trials seed jobs json_file no_shrink shrink_budget
      shard_s resume max_trials trace metrics =
    match grid_r with
    | Error m -> usage_error m
    | Ok grid -> (
      if trials <= 0 then usage_error "trials must be positive"
      else if jobs < 0 then usage_error "jobs must be >= 1"
      else if shrink_budget < 0 then usage_error "shrink-budget must be >= 0"
      else if max_trials <> None && Option.get max_trials <= 0 then
        usage_error "max-trials must be positive"
      else
        match Orchestrate.shard_of_string shard_s with
        | Error m -> usage_error m
        | Ok shard -> (
          let resume_art =
            match resume, json_file with
            | false, _ -> Ok None
            | true, (None | Some "-") ->
              Error "--resume needs --json FILE (the artifact to continue)"
            | true, Some file ->
              if not (Sys.file_exists file) then Ok None
              else Result.map Option.some (load_artifact file)
          in
          match resume_art with
          | Error m -> usage_error m
          | Ok resume ->
            with_obs ~trace ~metrics (fun obs ->
                let spec =
                  Campaign.spec ~grid ~trials ~seed ~shrink:(not no_shrink)
                    ~shrink_budget ()
                in
                let jobs = if jobs = 0 then Campaign.default_jobs () else jobs in
                match
                  Orchestrate.run ?obs ~jobs ?resume ?max_trials ~shard spec
                with
                | Error m -> usage_error m
                | Ok r ->
                  (match json_file with
                  | Some "-" -> List.iter print_endline r.Orchestrate.lines
                  | Some file -> write_lines file r.Orchestrate.lines
                  | None -> ());
                  if shard.Orchestrate.count > 1 then
                    Printf.printf "shard %s: %d of %d trials\n"
                      (Orchestrate.shard_to_string shard)
                      r.Orchestrate.total trials;
                  if r.Orchestrate.skipped > 0 then
                    Printf.printf "resumed: %d recorded verdicts reused, %d executed\n"
                      r.Orchestrate.skipped r.Orchestrate.executed;
                  if not r.Orchestrate.complete then
                    Printf.printf
                      "incomplete: %d of %d shard trials recorded (continue with \
                       --resume)\n"
                      (r.Orchestrate.skipped + r.Orchestrate.executed)
                      r.Orchestrate.total;
                  (match Orchestrate.render_report r.Orchestrate.lines with
                  | Ok report -> print_string report
                  | Error m -> Printf.eprintf "internal report error: %s\n" m);
                  List.iter
                    (fun (s : Campaign.shrunk_violation) ->
                      Printf.printf "\nreproducer (trial %d):\n%s"
                        s.Campaign.source.Campaign.index s.Campaign.snippet)
                    r.Orchestrate.new_violations;
                  if r.Orchestrate.has_violations then 3 else 0)))
  in
  let trials =
    Arg.(value & opt int 100 & info [ "trials" ] ~doc:"Number of trials to run.")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Domains that run trials, this process's main domain included: \
             $(docv) - 1 are spawned (0 = the recommended domain count). \
             Verdicts are identical for every value.")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report violations unminimized.")
  in
  let shrink_budget =
    Arg.(
      value & opt int 150
      & info [ "shrink-budget" ] ~doc:"Max shrink replays per violation.")
  in
  let shard =
    Arg.(
      value & opt string "0/1"
      & info [ "shard" ] ~docv:"I/N"
          ~doc:
            "Execute only the trials that hash to shard $(docv) (stable FNV-1a \
             rule). Run every shard 0/N .. (N-1)/N anywhere, then merge with \
             $(b,campaign combine) — the result is byte-identical to an \
             unsharded run.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the artifact at $(b,--json) $(i,FILE) if it exists: \
             verdicts already recorded there are reused (after a header \
             fingerprint cross-check against the compiled grid), only the \
             missing trials execute.")
  in
  let max_trials =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-trials" ] ~docv:"N"
          ~doc:
            "Execute at most $(docv) trials this invocation and write a \
             well-formed partial artifact (finish it later with --resume).")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ grid_args $ trials $ seed_arg $ jobs
      $ json_file_arg $ no_shrink $ shrink_budget $ shard $ resume $ max_trials
      $ trace_arg $ metrics_arg)

let print_outcome params runtime_seed script (outcome : Campaign.outcome) =
  Format.printf "%a seed=%d@.script: %s@." Campaign.pp_params params runtime_seed
    (Campaign.script_to_string script);
  match outcome with
  | Campaign.Rejected m ->
    Printf.printf "verdict: rejected (%s)\n" m;
    1
  | Campaign.Errored m ->
    Printf.printf "verdict: error (%s)\n" m;
    1
  | Campaign.Pass st ->
    Printf.printf "verdict: pass (worst recovery %s <= R %s)\n"
      (Time.to_string st.Campaign.worst_recovery)
      (Time.to_string params.Campaign.r);
    0
  | Campaign.Violation st ->
    Printf.printf "verdict: VIOLATION (worst recovery %s > R %s)\n"
      (Time.to_string st.Campaign.worst_recovery)
      (Time.to_string params.Campaign.r);
    3

let campaign_replay_cmd =
  let doc =
    "Replay one trial deterministically — from an artifact ($(b,--from) + \
     $(b,--trial)) or from an explicit $(b,--script)."
  in
  let run from trial_idx script_s workload topology nodes f r_ms
      protect_s share_s campaign_seed runtime_seed =
    match from, script_s with
    | Some _, Some _ -> usage_error "--from and --script are mutually exclusive"
    | Some file, None -> (
      match trial_idx with
      | None -> usage_error "--from needs --trial N"
      | Some idx -> (
        let replay a = Result.map_error (Printf.sprintf "%s: %s" file) (Orchestrate.replay a idx) in
        match Result.bind (load_artifact file) replay with
        | Error m -> input_error m
        | Ok (t, outcome) ->
          print_outcome t.Campaign.params t.Campaign.runtime_seed t.Campaign.script outcome))
    | None, Some s -> (
      match
        ( Campaign.script_of_string s,
          Campaign.criticality_of_name protect_s,
          Campaign.share_of_name share_s )
      with
      | Error m, _, _ | _, Error m, _ | _, _, Error m -> usage_error m
      | Ok script, Ok protect, Ok control_share -> (
        let params =
          {
            Campaign.workload;
            topology;
            nodes;
            f;
            r = Time.ms r_ms;
            bandwidth_bps = 10_000_000;
            protect;
            control_share;
          }
        in
        match
          Result.bind (Campaign.validate_grid (Campaign.point_grid params)) (fun () ->
              Campaign.validate_script ~nodes script)
        with
        | Error m -> usage_error m
        | Ok () ->
          let cache = Campaign.Cache.create ~seed:campaign_seed in
          print_outcome params runtime_seed script
            (Campaign.run_script ~cache params ~runtime_seed script)))
    | None, None -> usage_error "need --script, or --from FILE --trial N"
  in
  let from =
    Arg.(
      value
      & opt (some string) None
      & info [ "from" ] ~docv:"FILE" ~doc:"Campaign JSONL artifact to replay from.")
  in
  let trial_idx =
    Arg.(
      value
      & opt (some int) None
      & info [ "trial" ] ~docv:"N" ~doc:"Trial index within $(b,--from).")
  in
  let script_s =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"SCRIPT"
          ~doc:
            "Fault schedule as class[.param]@node@at_us joined with ';', e.g. \
             'corrupt@3@250000;babble.8@5@0'.")
  in
  let protect =
    Arg.(value & opt string "medium" & info [ "protect" ] ~doc:"Protect level.")
  in
  let share =
    Arg.(
      value & opt string "default"
      & info [ "control-share" ] ~doc:"Control bandwidth share, or 'default'.")
  in
  let campaign_seed =
    Arg.(
      value & opt int 1
      & info [ "campaign-seed" ]
          ~doc:
            "Campaign seed (fixes the random workload stream) for a $(b,--script) \
             replay. A $(b,--from) replay takes the seed from the artifact header.")
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const run $ from $ trial_idx $ script_s $ workload_arg
      $ topology_arg $ nodes_arg $ f_arg $ r_arg $ protect $ share
      $ campaign_seed $ seed_arg)

let campaign_combine_cmd =
  let doc =
    "Merge shard artifacts into the canonical campaign artifact (byte-identical \
     to an unsharded run)."
  in
  let run files out =
    if files = [] then usage_error "need at least one shard artifact"
    else
      match map_result read_lines files with
      | Error m -> input_error m
      | Ok inputs -> (
        match Orchestrate.combine inputs with
        | Error m ->
          Printf.eprintf "btr campaign combine: %s\n" m;
          2
        | Ok (lines, has_violations) ->
          (match out with
          | "-" -> List.iter print_endline lines
          | file ->
            write_lines file lines;
            Printf.printf "combined %d shard artifact(s) into %s\n"
              (List.length files) file);
          if has_violations then 3 else 0)
  in
  let files =
    Arg.(value & pos_all string [] & info [] ~docv:"SHARD.jsonl" ~doc:"Shard artifacts.")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "json"; "o" ] ~docv:"FILE"
          ~doc:"Write the combined artifact to $(docv) (default stdout).")
  in
  Cmd.v (Cmd.info "combine" ~doc) Term.(const run $ files $ out)

let campaign_frontier_cmd =
  let doc =
    "Locate the Def-3.1 admit/violate boundary along one axis by per-slice \
     bisection instead of an exhaustive grid."
  in
  let run grid_r axis_s lo hi tol probes seed json_file trace metrics =
    match grid_r with
    | Error m -> usage_error m
    | Ok grid -> (
      match Orchestrate.axis_of_string axis_s with
      | Error m -> usage_error m
      | Ok axis ->
        (* The r axis is specified in ms on the CLI, like --r. *)
        let scale v =
          match axis with Orchestrate.Axis_r -> Time.ms v | _ -> v
        in
        let fs =
          {
            Orchestrate.slice_grid = grid;
            axis;
            lo = scale lo;
            hi = scale hi;
            tolerance = scale tol;
            probes;
            fseed = seed;
          }
        in
        with_obs ~trace ~metrics (fun obs ->
            match Orchestrate.frontier ?obs fs with
            | Error m -> usage_error m
            | Ok fr ->
              let lines = Orchestrate.frontier_lines fr in
              (match json_file with
              | Some "-" -> List.iter print_endline lines
              | Some file -> write_lines file lines
              | None -> ());
              (match Orchestrate.render_frontier lines with
              | Ok report -> print_string report
              | Error m -> Printf.eprintf "internal report error: %s\n" m);
              0))
  in
  let axis =
    Arg.(
      value & opt string "r"
      & info [ "axis" ] ~docv:"AXIS"
          ~doc:
            "Numeric axis to bisect: r (recovery bound, ms), f (fault bound), \
             bandwidth (bits/s) or strikes (omission-strike threshold). The \
             grid option for that axis is ignored; every other grid option \
             defines the config slices.")
  in
  let lo =
    Arg.(
      required
      & opt (some int) None
      & info [ "lo" ] ~docv:"N" ~doc:"Lower end of the search range (ms for axis r).")
  in
  let hi =
    Arg.(
      required
      & opt (some int) None
      & info [ "hi" ] ~docv:"N" ~doc:"Upper end of the search range (ms for axis r).")
  in
  let tol =
    Arg.(
      value & opt int 1
      & info [ "tol" ] ~docv:"N"
          ~doc:
            "Boundary tolerance: the bisection lattice step (ms for axis r). \
             The located boundary is a pair of adjacent lattice points.")
  in
  let probes =
    Arg.(
      value & opt int 3
      & info [ "probes" ] ~docv:"N"
          ~doc:"Randomized fault schedules drawn per evaluated point.")
  in
  Cmd.v (Cmd.info "frontier" ~doc)
    Term.(
      const run $ grid_args $ axis $ lo $ hi $ tol $ probes
      $ seed_arg $ json_file_arg $ trace_arg $ metrics_arg)

let campaign_report_cmd =
  let doc =
    "Render the aggregate report from a campaign (or frontier) JSONL artifact."
  in
  let run file =
    let render lines =
      Result.map_error (Printf.sprintf "%s: %s" file) (Orchestrate.render_report lines)
    in
    match Result.bind (read_lines file) render with
    | Ok report ->
      print_string report;
      0
    | Error m -> input_error m
  in
  let file =
    Arg.(
      required
      & opt (some string) None
      & info [ "from" ] ~docv:"FILE" ~doc:"Campaign or frontier JSONL artifact.")
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ file)

let campaign_cmd =
  let doc = "Fault-injection campaigns: randomized search for Definition 3.1 violations." in
  Cmd.group
    (Cmd.info "campaign" ~doc)
    [
      campaign_run_cmd;
      campaign_replay_cmd;
      campaign_report_cmd;
      campaign_combine_cmd;
      campaign_frontier_cmd;
    ]

(* With no subcommand, run the demo deployment: handy for producing a
   full trace (`btr --trace t.jsonl`) without memorizing options. *)
let demo_term =
  let run seed trace metrics =
    with_obs ~trace ~metrics (fun obs ->
        match Btr.Scenario.run (Btr.Scenario.avionics_demo ~seed ?obs ()) with
        | Error e ->
          Format.eprintf "error: %a@." Planner.pp_error e;
          1
        | Ok rt ->
          report rt ~r:200;
          0)
  in
  Term.(const run $ seed_arg $ trace_arg $ metrics_arg)

let () =
  let doc = "bounded-time recovery for cyber-physical systems" in
  let info = Cmd.info "btr" ~version:"1.0.0" ~doc in
  (* Misuse exits 2, so scripts can tell it from a failed check/run (1):
     term_err covers unknown subcommands and flags, and a malformed
     option value (cmdliner's cli_error, 124) is mapped to 2 too. *)
  let code =
    Cmd.eval' ~term_err:2
      (Cmd.group ~default:demo_term info
         [ plan_cmd; check_cmd; run_cmd; campaign_cmd; workloads_cmd ])
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
