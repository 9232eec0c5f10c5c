open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Generators = Btr_workload.Generators
module Topology = Btr_net.Topology
module Net = Btr_net.Net
module Planner = Btr_planner.Planner
module Fault = Btr_fault.Fault
module Obs = Btr_obs.Obs

(* ------------------------------------------------------------------ *)
(* Parameters and grids                                                *)

type params = {
  workload : string;
  topology : string;
  nodes : int;
  f : int;
  r : Time.t;
  bandwidth_bps : int;
  protect : Task.criticality;
  control_share : float option;
}

let default_params =
  {
    workload = "avionics";
    topology = "clique";
    nodes = 6;
    f = 1;
    r = Time.ms 200;
    bandwidth_bps = 10_000_000;
    protect = Task.Medium;
    control_share = None;
  }

let share_name = function
  | None -> "default"
  | Some c -> Printf.sprintf "%.6f" c

let pp_params ppf p =
  Format.fprintf ppf "%s/%s n=%d f=%d R=%a bw=%d protect=%a share=%s"
    p.workload p.topology p.nodes p.f Time.pp p.r p.bandwidth_bps
    Task.pp_criticality p.protect (share_name p.control_share)

type grid = {
  workloads : string list;
  topologies : string list;
  node_counts : int list;
  fault_bounds : int list;
  recovery_bounds : Time.t list;
  bandwidths : int list;
  protect_levels : Task.criticality list;
  control_shares : float option list;
  classes : string list;
}

let known_classes =
  [ "crash"; "omit"; "omitto"; "delay"; "corrupt"; "equivocate"; "babble" ]

let default_grid =
  {
    workloads = [ default_params.workload ];
    topologies = [ default_params.topology ];
    node_counts = [ default_params.nodes ];
    fault_bounds = [ default_params.f ];
    recovery_bounds = [ default_params.r ];
    bandwidths = [ default_params.bandwidth_bps ];
    protect_levels = [ default_params.protect ];
    control_shares = [ default_params.control_share ];
    classes = known_classes;
  }

let grid_params g =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun topology ->
          List.concat_map
            (fun nodes ->
              List.concat_map
                (fun f ->
                  List.concat_map
                    (fun r ->
                      List.concat_map
                        (fun bandwidth_bps ->
                          List.concat_map
                            (fun protect ->
                              List.map
                                (fun control_share ->
                                  {
                                    workload;
                                    topology;
                                    nodes;
                                    f;
                                    r;
                                    bandwidth_bps;
                                    protect;
                                    control_share;
                                  })
                                g.control_shares)
                            g.protect_levels)
                        g.bandwidths)
                    g.recovery_bounds)
                g.fault_bounds)
            g.node_counts)
        g.topologies)
    g.workloads

let known_workloads = [ "avionics"; "scada"; "random" ]
let known_topologies = [ "clique"; "ring"; "dual-bus" ]

let random_layers = 3
let random_width = 3

(* The most tasks a campaign's workload can have on [n_nodes] nodes,
   whatever the campaign seed: the fixed workloads' own count, the
   random one's bound. A grid is admitted or refused for every seed. *)
let max_tasks name ~n_nodes =
  match name with
  | "random" -> Generators.random_layered_max_tasks ~layers:random_layers ~width:random_width
  | "scada" -> Graph.task_count (Generators.scada ~n_nodes)
  | _ -> Graph.task_count (Generators.avionics ~n_nodes)

let validate_grid g =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let nonempty name l = if l = [] then err "empty %s axis" name else Ok () in
  let ( let* ) r k = match r with Error _ as e -> e | Ok () -> k () in
  let* () = nonempty "workload" g.workloads in
  let* () = nonempty "topology" g.topologies in
  let* () = nonempty "nodes" g.node_counts in
  let* () = nonempty "f" g.fault_bounds in
  let* () = nonempty "R" g.recovery_bounds in
  let* () = nonempty "bandwidth" g.bandwidths in
  let* () = nonempty "protect" g.protect_levels in
  let* () = nonempty "control-share" g.control_shares in
  let* () = nonempty "classes" g.classes in
  let* () =
    match
      List.find_opt (fun c -> not (List.mem c known_classes)) g.classes
    with
    | Some c -> err "unknown fault class %S" c
    | None -> Ok ()
  in
  match List.find_opt (fun w -> not (List.mem w known_workloads)) g.workloads with
  | Some w -> err "unknown workload %S" w
  | None -> (
    match
      List.find_opt (fun t -> not (List.mem t known_topologies)) g.topologies
    with
    | Some t -> err "unknown topology %S" t
    | None ->
      if List.exists (fun n -> n < 2) g.node_counts then err "nodes < 2"
      else if List.exists (fun f -> f < 0) g.fault_bounds then err "f < 0"
      else if List.exists (fun r -> r <= Time.zero) g.recovery_bounds then
        err "R <= 0"
      else if List.exists (fun b -> b <= 0) g.bandwidths then err "bandwidth <= 0"
      else if
        List.exists
          (fun s -> match s with Some c -> c <= 0.0 || c > 0.6 | None -> false)
          g.control_shares
      then err "control share outside (0, 0.6]"
      else
        let smallest = List.fold_left Stdlib.min max_int g.node_counts in
        let each xs check =
          List.fold_left (fun acc x -> let* () = acc in check x) (Ok ()) xs
        in
        let* () = each g.workloads (fun w -> Generators.check_nodes w ~n_nodes:smallest) in
        each g.workloads (fun w ->
            each g.node_counts (fun n_nodes ->
                let tasks = max_tasks w ~n_nodes in
                each g.fault_bounds (fun f -> Planner.check_plan_size ~nodes:n_nodes ~f ~tasks))))

let point_grid p =
  {
    default_grid with
    workloads = [ p.workload ];
    topologies = [ p.topology ];
    node_counts = [ p.nodes ];
    fault_bounds = [ p.f ];
    recovery_bounds = [ p.r ];
    bandwidths = [ p.bandwidth_bps ];
    protect_levels = [ p.protect ];
    control_shares = [ p.control_share ];
  }

(* ------------------------------------------------------------------ *)
(* Specs and trials                                                    *)

type spec = {
  grid : grid;
  trials : int;
  seed : int;
  shrink : bool;
  shrink_budget : int;
}

let spec ?(grid = default_grid) ?(trials = 100) ?(seed = 1) ?(shrink = true)
    ?(shrink_budget = 150) () =
  { grid; trials; seed; shrink; shrink_budget }

type trial = {
  index : int;
  runtime_seed : int;
  params : params;
  script : Fault.script;
  horizon : Time.t;
}

let ( let* ) = Result.bind

(* Workload generators are deterministic in (campaign seed, params), so
   every trial of a configuration sees the same graph — a requirement
   for the plan cache to be sound. *)
let workload_seed seed = (seed * 7919) + 17

let workload_of ~seed p =
  match Generators.check_nodes p.workload ~n_nodes:p.nodes with
  | Error _ as e -> e
  | Ok () -> (
    match p.workload with
    | "avionics" -> Ok (Generators.avionics ~n_nodes:p.nodes)
    | "scada" -> Ok (Generators.scada ~n_nodes:p.nodes)
    | "random" ->
      Ok
        (Generators.random_layered
           ~rng:(Rng.create (workload_seed seed))
           ~n_nodes:p.nodes ~layers:random_layers ~width:random_width ())
    | other -> Error (Printf.sprintf "unknown workload %S" other))

let topology_of p =
  let latency = Time.us 50 in
  match p.topology with
  | _ when p.nodes < 2 -> Error "nodes < 2"
  | "clique" ->
    Ok (Topology.fully_connected ~n:p.nodes ~bandwidth_bps:p.bandwidth_bps ~latency)
  | "ring" -> Ok (Topology.ring ~n:p.nodes ~bandwidth_bps:p.bandwidth_bps ~latency)
  | "dual-bus" ->
    Ok (Topology.dual_bus ~n:p.nodes ~bandwidth_bps:p.bandwidth_bps ~latency)
  | other -> Error (Printf.sprintf "unknown topology %S" other)

let tune_of p c =
  let c = { c with Planner.protect_level = p.protect } in
  match p.control_share with
  | None -> c
  | Some control_frac ->
    { c with Planner.shares = Some { Net.data_frac = 0.35; control_frac } }

let resolved_config p = tune_of p (Planner.default_config ~f:p.f ~recovery_bound:p.r)

(* A non-default runtime strike threshold changes the admission answer
   (BTR-E305 reasons about strikes*period detection latency), so it is
   part of the cache key whenever it is overridden. [None] keeps the
   historical key bytes. *)
let strikes_suffix = function
  | None -> ""
  | Some k -> Printf.sprintf "|strikes=%d" k

(* The campaign plan-cache key: workload/topology identity plus the
   total serialization of the resolved planner config. Never physical
   equality — specs embed closures. *)
let plan_key ?strikes ~seed p =
  Printf.sprintf "%s|%s|n=%d|bw=%d|ws=%d|%s%s" p.workload p.topology p.nodes
    p.bandwidth_bps (workload_seed seed)
    (Planner.config_key (resolved_config p))
    (strikes_suffix strikes)

(* The same key with the requested R zeroed out: R is the one config
   field planning never reads, so two grid points differing only in R
   share plans and schedules — only the verifier's admission answer can
   differ. R-sweep campaigns use this to plan each base config once and
   derive the neighbors via [Planner.with_recovery_bound]. *)
let base_plan_key ?strikes ~seed p =
  Printf.sprintf "%s|%s|n=%d|bw=%d|ws=%d|%s%s" p.workload p.topology p.nodes
    p.bandwidth_bps (workload_seed seed)
    (Planner.config_build_key (resolved_config p))
    (strikes_suffix strikes)

let period_of ~seed p =
  match workload_of ~seed p with
  | Ok g -> Graph.period g
  | Error _ -> Time.ms 20

(* --- fault-schedule generation ------------------------------------- *)

(* [List.init]'s evaluation order is not a guarantee we want to lean on
   for RNG draws; build effectful lists with an explicit loop. *)
let draw_list n f =
  let rec go i acc = if i >= n then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

let behavior_of_class rng ~nodes ~node ~period cls =
  match cls with
  | "crash" -> Fault.Crash
  | "omit" -> Fault.Omit_outputs
  | "omitto" ->
    let others = List.filter (fun x -> x <> node) (List.init nodes Fun.id) in
    if others = [] then Fault.Omit_outputs
    else
      let m = 1 + Rng.int rng (Stdlib.max 1 (List.length others / 2)) in
      Fault.Omit_to (List.sort Int.compare (Rng.sample rng m others))
  | "delay" -> Fault.Delay_outputs (Time.us (Rng.int_in rng 500 (2 * period)))
  | "equivocate" -> Fault.Equivocate
  | "babble" -> Fault.Babble { bogus_per_period = Rng.int_in rng 2 8 }
  | _ -> Fault.Corrupt_outputs

(* The full-palette draw keeps the historical 8-way stream (corrupt is
   double-weighted) so seeded fixtures stay stable; a restricted
   [classes] axis draws uniformly over the listed classes. Sub-draws
   (omit-to target sets, delay magnitudes, babble rates) are shared, so
   identical (seed, index) pairs agree wherever both palettes can
   produce the same class. *)
let gen_behavior rng ~classes ~nodes ~node ~period =
  let cls =
    if List.equal String.equal classes known_classes then
      match Rng.int rng 8 with
      | 0 -> "crash"
      | 1 -> "omit"
      | 2 -> "omitto"
      | 3 -> "delay"
      | 4 | 5 -> "corrupt"
      | 6 -> "equivocate"
      | _ -> "babble"
    else List.nth classes (Rng.int rng (List.length classes))
  in
  behavior_of_class rng ~nodes ~node ~period cls

let gen_script rng ~classes ~nodes ~f ~r ~period =
  if f <= 0 then []
  else begin
    let k = 1 + Rng.int rng f in
    let victims = Rng.sample rng k (List.init nodes Fun.id) in
    let start = Time.add (Time.mul period 2) (Time.us (Rng.int rng period)) in
    let events =
      if Rng.int rng 10 < 3 then begin
        (* The §3 adversary: a fresh fault roughly every R. *)
        let behavior = gen_behavior rng ~classes ~nodes ~node:(-1) ~period in
        let gap =
          Time.max period (Time.add r (Time.sub (Time.us (Rng.int rng period)) (Time.div period 2)))
        in
        Fault.sequential_attack ~nodes:victims ~start ~gap behavior
      end
      else
        List.concat_map
          (fun node ->
            let n_events = if Rng.int rng 4 = 0 then 2 else 1 in
            draw_list n_events (fun _ ->
                {
                  Fault.at = Time.add start (Time.us (Rng.int rng (Time.mul period 16)));
                  node;
                  behavior = gen_behavior rng ~classes ~nodes ~node ~period;
                }))
          victims
    in
    List.sort Shrink.compare_event events
  end

let horizon_for ~period ~r script =
  let last =
    List.fold_left (fun a (e : Fault.event) -> Time.max a e.Fault.at) Time.zero script
  in
  let raw = Time.add last (Time.add r (Time.mul period 8)) in
  Time.mul period ((raw + period - 1) / period)

(* Trial [i]'s stream is derived from (campaign seed, i) alone, so any
   trial can be re-generated in isolation and results cannot depend on
   which worker ran what. *)
let trial_rng ~seed i = Rng.create (seed lxor ((i + 1) * 0x2545F4914F6CDD1D))

let make_trial ~seed ~classes ~configs i =
  let n_cfg = Array.length configs in
  let params, period = configs.(i mod n_cfg) in
  let rng = trial_rng ~seed i in
  let script =
    gen_script rng ~classes ~nodes:params.nodes ~f:params.f ~r:params.r ~period
  in
  let runtime_seed = Rng.int rng 0x3FFFFFFF in
  {
    index = i;
    runtime_seed;
    params;
    script;
    horizon = horizon_for ~period ~r:params.r script;
  }

let config_array spec =
  Array.of_list
    (List.map (fun p -> (p, period_of ~seed:spec.seed p)) (grid_params spec.grid))

let compile spec =
  let configs = config_array spec in
  if Array.length configs = 0 then []
  else
    draw_list spec.trials
      (make_trial ~seed:spec.seed ~classes:spec.grid.classes ~configs)

let trial_of_index spec i =
  let configs = config_array spec in
  if i < 0 || i >= spec.trials || Array.length configs = 0 then None
  else
    Some (make_trial ~seed:spec.seed ~classes:spec.grid.classes ~configs i)

(* ------------------------------------------------------------------ *)
(* Running                                                             *)

type run_stats = {
  worst_recovery : Time.t;
  recoveries : Time.t list;
  incorrect : Time.t;
  deadline_miss_bp : int;
  correct_bp : int;
  bytes_sent : int;
  control_bytes : int;
  sim_events : int;
  mode_changes : int;
  periods : int;
}

type outcome =
  | Pass of run_stats
  | Violation of run_stats
  | Rejected of string
  | Errored of string

let outcome_name = function
  | Pass _ -> "pass"
  | Violation _ -> "violation"
  | Rejected _ -> "rejected"
  | Errored _ -> "error"

let violates = function Violation _ -> true | _ -> false

type verdict = { trial : trial; outcome : outcome }

type shrunk_violation = {
  source : trial;
  script : Fault.script;
  stats : run_stats;
  shrink_runs : int;
  snippet : string;
}

type result = {
  spec : spec;
  configs : int;
  jobs : int;
  verdicts : verdict list;
  violations : shrunk_violation list;
  cache_hits : int;
  cache_misses : int;
}

(* A [strikes] override is the one runtime knob a campaign varies; the
   frontier's strikes axis sweeps it through admission and deployment
   alike. [None] keeps {!Btr.Runtime.default_config}. *)
let strikes_config =
  Option.map (fun k ->
      { Btr.Runtime.default_config with Btr.Runtime.omission_strikes = k })

let error_string e = Format.asprintf "%a" Planner.pp_error e

module Cache = struct
  (* One domain owns a cache. [run_trials] resolves every trial's
     strategy before its worker pool starts; shrinking, replay and the
     frontier run on the calling domain. *)
  type t = {
    seed : int;
    table : (string, (Planner.t, string) Stdlib.result) Hashtbl.t;
    (* First fully planned strategy per R-stripped config, for deriving
       R-grid neighbours without replanning. *)
    by_base : (string, Planner.t) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
    mutable derived : int;
  }

  let create ~seed =
    {
      seed;
      table = Hashtbl.create 16;
      by_base = Hashtbl.create 16;
      hits = 0;
      misses = 0;
      derived = 0;
    }

  (* Scenario.plan includes the Btr_check static gate: a strategy the
     verifier rejects is cached as an error, exactly once. *)
  let build ?strikes ~seed p =
    let* workload = workload_of ~seed p in
    let* topology = topology_of p in
    let s =
      Btr.Scenario.spec ~workload ~topology ~f:p.f ~recovery_bound:p.r
        ~tune:(tune_of p) ()
    in
    Result.map_error error_string
      (Btr.Scenario.plan ?config:(strikes_config strikes) s)

  let produce ?strikes t p =
    let bkey = base_plan_key ?strikes ~seed:t.seed p in
    match Hashtbl.find_opt t.by_base bkey with
    | Some b ->
      (* An R-grid neighbour of an already planned config: reuse its
         plans in O(1) and replay only the R-dependent admission. *)
      t.derived <- t.derived + 1;
      Result.map_error error_string
        (Btr.Scenario.admit ?config:(strikes_config strikes)
           (Planner.with_recovery_bound b p.r))
    | None ->
      let v = build ?strikes ~seed:t.seed p in
      Result.iter (Hashtbl.replace t.by_base bkey) v;
      v

  let strategy ?strikes t p =
    let key = plan_key ?strikes ~seed:t.seed p in
    match Hashtbl.find_opt t.table key with
    | Some v ->
      t.hits <- t.hits + 1;
      v
    | None ->
      let v = produce ?strikes t p in
      Hashtbl.replace t.table key v;
      t.misses <- t.misses + 1;
      v

  let hits t = t.hits
  let misses t = t.misses
  let derived t = t.derived
end

let default_jobs () = Stdlib.max 1 (Domain.recommended_domain_count () - 1)

let bp f = int_of_float ((f *. 10_000.0) +. 0.5)

let stats_of rt =
  let m = Btr.Runtime.metrics rt in
  let recoveries = Btr.Metrics.recovery_times m in
  let ns = Btr.Runtime.net_stats rt in
  {
    worst_recovery = List.fold_left Time.max Time.zero recoveries;
    recoveries;
    incorrect = Btr.Metrics.incorrect_time m;
    deadline_miss_bp = bp (Btr.Metrics.deadline_miss_fraction m);
    correct_bp = bp (Btr.Metrics.correct_fraction m);
    bytes_sent = ns.Net.bytes_sent;
    control_bytes = ns.Net.control_bytes_sent;
    sim_events = Btr_sim.Engine.events_processed (Btr.Runtime.engine rt);
    mode_changes = List.length (Btr.Runtime.mode_changes rt);
    periods = Btr.Metrics.periods_finalized m;
  }

(* Deploy, run and judge one trial on its resolved strategy: the step
   the pool's workers execute, touching nothing shared but [strategy]
   (immutable once built). *)
let execute ?strikes p ~runtime_seed script = function
  | Error m -> Rejected m
  | Ok strategy -> (
    try
      let workload = Planner.workload strategy in
      let s =
        Btr.Scenario.spec ~workload ~topology:(Planner.topology strategy) ~f:p.f
          ~recovery_bound:p.r ~script
          ~horizon:(horizon_for ~period:(Graph.period workload) ~r:p.r script)
          ~seed:runtime_seed ()
      in
      let rt = Btr.Scenario.deploy ?config:(strikes_config strikes) s strategy in
      Btr.Runtime.run rt ~horizon:s.Btr.Scenario.horizon;
      let st = stats_of rt in
      if List.exists (fun rec_t -> Time.compare rec_t p.r > 0) st.recoveries then
        Violation st
      else Pass st
    with e -> Errored (Printexc.to_string e))

let run_script ?strikes ~cache p ~runtime_seed script =
  execute ?strikes p ~runtime_seed script (Cache.strategy ?strikes cache p)

(* --- reproducer snippets ------------------------------------------- *)

let workload_expr ~wl_seed p =
  match p.workload with
  | "scada" -> Printf.sprintf "Btr_workload.Generators.scada ~n_nodes:%d" p.nodes
  | "random" ->
    Printf.sprintf
      "Btr_workload.Generators.random_layered ~rng:(Rng.create %d) ~n_nodes:%d \
       ~layers:%d ~width:%d ()"
      wl_seed p.nodes random_layers random_width
  | _ -> Printf.sprintf "Btr_workload.Generators.avionics ~n_nodes:%d" p.nodes

let topology_expr p =
  let gen =
    match p.topology with
    | "ring" -> "ring"
    | "dual-bus" -> "dual_bus"
    | _ -> "fully_connected"
  in
  Printf.sprintf "Btr_net.Topology.%s ~n:%d ~bandwidth_bps:%d ~latency:(Time.us 50)"
    gen p.nodes p.bandwidth_bps

let criticality_expr (c : Task.criticality) =
  "Btr_workload.Task."
  ^
  match c with
  | Task.Best_effort -> "Best_effort"
  | Task.Low -> "Low"
  | Task.Medium -> "Medium"
  | Task.High -> "High"
  | Task.Safety_critical -> "Safety_critical"

let tune_expr p =
  let fields =
    (if p.protect = Task.Medium then []
     else
       [ Printf.sprintf "Btr_planner.Planner.protect_level = %s" (criticality_expr p.protect) ])
    @
    match p.control_share with
    | None -> []
    | Some c ->
      [
        Printf.sprintf
          "%sshares = Some { Btr_net.Net.data_frac = 0.35; control_frac = %.6f }"
          (if p.protect = Task.Medium then "Btr_planner.Planner." else "")
          c;
      ]
  in
  match fields with
  | [] -> ""
  | fs -> Printf.sprintf "\n      ~tune:(fun c -> { c with %s })" (String.concat "; " fs)

let behavior_expr (b : Fault.behavior) =
  match b with
  | Fault.Crash -> "Fault.Crash"
  | Fault.Omit_outputs -> "Fault.Omit_outputs"
  | Fault.Omit_to l ->
    Printf.sprintf "Fault.Omit_to [ %s ]" (String.concat "; " (List.map string_of_int l))
  | Fault.Delay_outputs d -> Printf.sprintf "Fault.Delay_outputs (Time.us %d)" d
  | Fault.Corrupt_outputs -> "Fault.Corrupt_outputs"
  | Fault.Equivocate -> "Fault.Equivocate"
  | Fault.Babble { bogus_per_period } ->
    Printf.sprintf "Fault.Babble { bogus_per_period = %d }" bogus_per_period

let event_expr (e : Fault.event) =
  Printf.sprintf "{ Fault.at = Time.us %d; node = %d; behavior = %s }" e.Fault.at
    e.Fault.node (behavior_expr e.Fault.behavior)

let repro_snippet (t : trial) ~wl_seed ~script ~horizon =
  let p = t.params in
  Printf.sprintf
    "(* Reproduces the Definition 3.1 violation found by campaign trial %d:\n\
    \   measured recovery exceeds R = %s. Uses only the public API. *)\n\
     open Btr_util\n\
     module Fault = Btr_fault.Fault\n\n\
     let () =\n\
    \  let spec =\n\
    \    Btr.Scenario.spec\n\
    \      ~workload:(%s)\n\
    \      ~topology:(%s)\n\
    \      ~f:%d ~recovery_bound:(Time.us %d)\n\
    \      ~script:[ %s ]\n\
    \      ~horizon:(Time.us %d) ~seed:%d%s ()\n\
    \  in\n\
    \  match Btr.Scenario.run spec with\n\
    \  | Error e -> Format.printf \"rejected: %%a@.\" Btr_planner.Planner.pp_error e\n\
    \  | Ok rt ->\n\
    \    List.iter\n\
    \      (fun r -> Format.printf \"recovery %%a (R = %%a)@.\" Time.pp r Time.pp (Time.us %d))\n\
    \      (Btr.Metrics.recovery_times (Btr.Runtime.metrics rt))\n"
    t.index (Time.to_string p.r) (workload_expr ~wl_seed p) (topology_expr p) p.f p.r
    (String.concat ";\n                " (List.map event_expr script))
    horizon t.runtime_seed (tune_expr p) p.r

let shrink_violation ~cache ~budget (t : trial) =
  let pred s = violates (run_script ~cache t.params ~runtime_seed:t.runtime_seed s) in
  if not (pred t.script) then None
  else begin
    let period =
      match Cache.strategy cache t.params with
      | Ok strategy -> Graph.period (Planner.workload strategy)
      | Error _ -> Time.ms 20
    in
    let sh = Shrink.minimize ~violates:pred ~round_to:period ~max_runs:budget t.script in
    match run_script ~cache t.params ~runtime_seed:t.runtime_seed sh.Shrink.script with
    | Violation stats ->
      let horizon = horizon_for ~period ~r:t.params.r sh.Shrink.script in
      Some
        {
          source = t;
          script = sh.Shrink.script;
          stats;
          shrink_runs = sh.Shrink.runs;
          snippet =
            repro_snippet t ~wl_seed:(workload_seed cache.Cache.seed)
              ~script:sh.Shrink.script ~horizon;
        }
    | _ -> None
  end

(* --- the domain pool ----------------------------------------------- *)

(* Execute an explicit trial list (the orchestrator's shard/resume path
   runs subsets; [run] passes the full compilation). Verdicts come back
   in list order and all telemetry covers exactly these trials. *)
let run_trials ?obs ?jobs spec trial_list =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let jobs = match jobs with Some j -> Stdlib.max 1 j | None -> default_jobs () in
  let cache = Cache.create ~seed:spec.seed in
  let trials = Array.of_list trial_list in
  let n = Array.length trials in
  let configs = List.length (grid_params spec.grid) in
  (* Plan before the workers start, as BTR plans offline before
     deployment: one cache lookup per trial, in trial order, on this
     domain. The pool then shares nothing mutable but the claim counter
     and the slots each worker writes. *)
  let resolved = Array.map (fun (t : trial) -> Cache.strategy cache t.params) trials in
  let verdict_of i =
    let t = trials.(i) in
    {
      trial = t;
      outcome = execute t.params ~runtime_seed:t.runtime_seed t.script resolved.(i);
    }
  in
  let slots = Array.make n None in
  if jobs = 1 || n <= 1 then
    for i = 0 to n - 1 do
      slots.(i) <- Some (verdict_of i)
    done
  else begin
    (* Workers claim chunks of consecutive indices with one atomic
       fetch-and-add each and write into distinct slots; per-trial
       determinism makes the slot contents independent of the
       interleaving. Chunks are ~1/8 of an
       even split so stragglers still balance: a worker stuck on a slow
       trial forfeits at most its current chunk to the others. *)
    let workers = Stdlib.min jobs n in
    let chunk = Stdlib.max 1 (n / (workers * 8)) in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let start = Atomic.fetch_and_add next chunk in
        if start < n then begin
          let stop = Stdlib.min n (start + chunk) in
          for i = start to stop - 1 do
            slots.(i) <- Some (verdict_of i)
          done;
          loop ()
        end
      in
      loop ()
    in
    let domains = draw_list workers (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains
  end;
  let verdicts =
    Array.to_list
      (Array.map
         (function Some v -> v | None -> invalid_arg "campaign: unfilled slot")
         slots)
  in
  let violations =
    List.filter_map
      (fun v ->
        if violates v.outcome then
          shrink_violation ~cache
            ~budget:(if spec.shrink then spec.shrink_budget else 0)
            v.trial
        else None)
      verdicts
  in
  (* All telemetry from the coordinating domain, in trial order: traces
     and counters are identical whatever [jobs] was. *)
  if Obs.enabled obs then begin
    Obs.emit obs ~at:Time.zero Btr_obs.Obs.Campaign
      (Btr_obs.Obs.Campaign_started { trials = n; configs });
    List.iter
      (fun v ->
        Obs.emit obs ~at:Time.zero Btr_obs.Obs.Campaign
          (Btr_obs.Obs.Trial_verdict
             { trial = v.trial.index; verdict = outcome_name v.outcome }))
      verdicts;
    List.iter
      (fun s ->
        Obs.emit obs ~at:Time.zero Btr_obs.Obs.Campaign
          (Btr_obs.Obs.Violation_shrunk
             {
               trial = s.source.index;
               events_before = List.length s.source.script;
               events_after = List.length s.script;
             }))
      violations
  end;
  let reg = Obs.registry obs in
  let count name v =
    Btr_obs.Obs.Counter.add (Btr_obs.Obs.Registry.counter reg Btr_obs.Obs.Campaign name) v
  in
  let tally pred = List.length (List.filter pred verdicts) in
  count "trials" n;
  count "violations" (tally (fun v -> violates v.outcome));
  count "rejected" (tally (fun v -> match v.outcome with Rejected _ -> true | _ -> false));
  count "errors" (tally (fun v -> match v.outcome with Errored _ -> true | _ -> false));
  count "plan_cache_hits" (Cache.hits cache);
  count "plan_cache_misses" (Cache.misses cache);
  count "shrink_runs" (List.fold_left (fun a s -> a + s.shrink_runs) 0 violations);
  {
    spec;
    configs;
    jobs;
    verdicts;
    violations;
    cache_hits = Cache.hits cache;
    cache_misses = Cache.misses cache;
  }

let run ?obs ?jobs spec = run_trials ?obs ?jobs spec (compile spec)

(* ------------------------------------------------------------------ *)
(* Schedule codec                                                      *)

let behavior_to_string (b : Fault.behavior) =
  match b with
  | Fault.Crash -> "crash"
  | Fault.Omit_outputs -> "omit"
  | Fault.Omit_to l -> "omitto" ^ String.concat "" (List.map (Printf.sprintf ".%d") l)
  | Fault.Delay_outputs d -> Printf.sprintf "delay.%d" d
  | Fault.Corrupt_outputs -> "corrupt"
  | Fault.Equivocate -> "equivocate"
  | Fault.Babble { bogus_per_period } -> Printf.sprintf "babble.%d" bogus_per_period

let script_to_string s =
  String.concat ";"
    (List.map
       (fun (e : Fault.event) ->
         Printf.sprintf "%s@%d@%d" (behavior_to_string e.Fault.behavior) e.Fault.node
           e.Fault.at)
       (List.sort Shrink.compare_event s))

let behavior_of_string s =
  match String.split_on_char '.' s with
  | [ "crash" ] -> Ok Fault.Crash
  | [ "omit" ] -> Ok Fault.Omit_outputs
  | [ "corrupt" ] -> Ok Fault.Corrupt_outputs
  | [ "equivocate" ] -> Ok Fault.Equivocate
  | [ "delay"; d ] -> (
    match int_of_string_opt d with
    | Some d when d > 0 -> Ok (Fault.Delay_outputs d)
    | _ -> Error (Printf.sprintf "bad delay %S" s))
  | [ "babble"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 -> Ok (Fault.Babble { bogus_per_period = n })
    | _ -> Error (Printf.sprintf "bad babble %S" s))
  | "omitto" :: (_ :: _ as targets) -> (
    let parsed = List.map int_of_string_opt targets in
    if List.exists Option.is_none parsed then
      Error (Printf.sprintf "bad omitto %S" s)
    else Ok (Fault.Omit_to (List.map Option.get parsed)))
  | _ -> Error (Printf.sprintf "unknown fault class %S" s)

let event_of_string s =
  match String.split_on_char '@' s with
  | [ cls; node; at ] -> (
    match behavior_of_string cls, int_of_string_opt node, int_of_string_opt at with
    | Ok behavior, Some node, Some at when node >= 0 && at >= 0 ->
      Ok { Fault.at; node; behavior }
    | (Error _ as e), _, _ -> e |> Result.map (fun _ -> assert false)
    | _ -> Error (Printf.sprintf "bad event %S (want class[.param]@node@at_us)" s))
  | _ -> Error (Printf.sprintf "bad event %S (want class[.param]@node@at_us)" s)

let script_of_string s =
  if String.trim s = "" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.sort Shrink.compare_event (List.rev acc))
      | part :: rest -> (
        match event_of_string (String.trim part) with
        | Ok e -> go (e :: acc) rest
        | Error _ as e -> e |> Result.map (fun _ -> []))
    in
    go [] (String.split_on_char ';' s)

let validate_script ~nodes script =
  let named (e : Fault.event) =
    e.Fault.node :: (match e.Fault.behavior with Fault.Omit_to l -> l | _ -> [])
  in
  match
    List.find_opt (fun n -> n < 0 || n >= nodes) (List.concat_map named script)
  with
  | None -> Ok ()
  | Some n ->
    Error (Printf.sprintf "script names node %d, outside 0..%d" n (nodes - 1))

(* ------------------------------------------------------------------ *)
(* Artifact fields                                                     *)

module J = Flat_json

let criticality_of_name = function
  | "best-effort" -> Ok Task.Best_effort
  | "low" -> Ok Task.Low
  | "medium" -> Ok Task.Medium
  | "high" -> Ok Task.High
  | "safety-critical" -> Ok Task.Safety_critical
  | other -> Error (Printf.sprintf "unknown protect level %S" other)

let share_of_name = function
  | "default" -> Ok None
  | s -> (
    match float_of_string_opt s with
    | Some c -> Ok (Some c)
    | None -> Error (Printf.sprintf "bad control share %S (want a float or 'default')" s))

let params_fields (p : params) =
  [
    ("workload", J.Str p.workload);
    ("topology", J.Str p.topology);
    ("nodes", J.Int p.nodes);
    ("f", J.Int p.f);
    ("r_us", J.Int p.r);
    ("bandwidth_bps", J.Int p.bandwidth_bps);
    ("protect", J.Str (Format.asprintf "%a" Task.pp_criticality p.protect));
    ("control_share", J.Str (share_name p.control_share));
  ]

let field get fields name =
  match get fields name with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "line lacks %S" name)

let params_of_fields fields =
  let* workload = field J.str_of fields "workload" in
  let* topology = field J.str_of fields "topology" in
  let* nodes = field J.int_of fields "nodes" in
  let* f = field J.int_of fields "f" in
  let* r = field J.int_of fields "r_us" in
  let* bandwidth_bps = field J.int_of fields "bandwidth_bps" in
  let* protect = Result.bind (field J.str_of fields "protect") criticality_of_name in
  let* control_share = Result.bind (field J.str_of fields "control_share") share_of_name in
  Ok { workload; topology; nodes; f; r; bandwidth_bps; protect; control_share }

let stats_fields st =
  [
    ("worst_recovery_us", J.Int st.worst_recovery);
    ("recoveries", J.Int (List.length st.recoveries));
    ("incorrect_us", J.Int st.incorrect);
    ("deadline_miss_bp", J.Int st.deadline_miss_bp);
    ("correct_bp", J.Int st.correct_bp);
    ("bytes", J.Int st.bytes_sent);
    ("control_bytes", J.Int st.control_bytes);
    ("sim_events", J.Int st.sim_events);
    ("mode_changes", J.Int st.mode_changes);
    ("periods", J.Int st.periods);
  ]

let verdict_fields v =
  (("trial", J.Int v.trial.index) :: params_fields v.trial.params)
  @ [
      ("seed", J.Int v.trial.runtime_seed);
      ("events", J.Int (List.length v.trial.script));
      ("script", J.Str (script_to_string v.trial.script));
      ("horizon_us", J.Int v.trial.horizon);
      ("verdict", J.Str (outcome_name v.outcome));
    ]
  @
  match v.outcome with
  | Pass st | Violation st -> stats_fields st
  | Rejected reason | Errored reason -> [ ("reason", J.Str reason) ]

let verdict_json v = J.to_string (verdict_fields v)

let trial_of_fields fields =
  let* index = field J.int_of fields "trial" in
  let* params = params_of_fields fields in
  let* runtime_seed = field J.int_of fields "seed" in
  let* () = validate_grid (point_grid params) in
  let* script = Result.bind (field J.str_of fields "script") script_of_string in
  let* () = validate_script ~nodes:params.nodes script in
  let* horizon = field J.int_of fields "horizon_us" in
  Ok { index; runtime_seed; params; script; horizon }

let violation_json s =
  J.to_string
    ([
       ("violation", J.Int s.source.index);
       ("script", J.Str (script_to_string s.script));
       ("events", J.Int (List.length s.script));
       ("events_before", J.Int (List.length s.source.script));
       ("shrink_runs", J.Int s.shrink_runs);
       ("r_us", J.Int s.source.params.r);
     ]
    @ stats_fields s.stats
    @ [ ("snippet", J.Str s.snippet) ])

let fingerprint r = Fnv.to_hex (Fnv.hash64_lines (List.map verdict_json r.verdicts))

let grid_axes g =
  let commas f l = String.concat "," (List.map f l) in
  Printf.sprintf "w=%s|t=%s|n=%s|f=%s|r_us=%s|bw=%s|protect=%s|share=%s"
    (commas Fun.id g.workloads) (commas Fun.id g.topologies)
    (commas string_of_int g.node_counts)
    (commas string_of_int g.fault_bounds)
    (commas string_of_int g.recovery_bounds)
    (commas string_of_int g.bandwidths)
    (commas (Format.asprintf "%a" Task.pp_criticality) g.protect_levels)
    (commas share_name g.control_shares)
