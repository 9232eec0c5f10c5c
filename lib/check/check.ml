open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Topology = Btr_net.Topology
module Net = Btr_net.Net
module Schedule = Btr_sched.Schedule
module Augment = Btr_planner.Augment
module Planner = Btr_planner.Planner
module Obs = Btr_obs.Obs

type severity = Error | Warning

let severity_name = function Error -> "error" | Warning -> "warning"

type code =
  | Link_oversubscribed
  | Data_reserve_exceeded
  | Control_reserve_tight
  | Schedule_invalid
  | Mode_missing
  | Transition_missing
  | Recovery_bound_exceeded
  | Recovery_bound_understated
  | Selective_omission_undetectable
  | Omission_needs_corroboration
  | Transition_target_unknown
  | Orphan_mode
  | Evidence_unroutable
  | Evidence_budget_dominant

let all_codes =
  [
    Link_oversubscribed;
    Data_reserve_exceeded;
    Control_reserve_tight;
    Schedule_invalid;
    Mode_missing;
    Transition_missing;
    Recovery_bound_exceeded;
    Recovery_bound_understated;
    Selective_omission_undetectable;
    Omission_needs_corroboration;
    Transition_target_unknown;
    Orphan_mode;
    Evidence_unroutable;
    Evidence_budget_dominant;
  ]

let code_id = function
  | Link_oversubscribed -> "BTR-E101"
  | Data_reserve_exceeded -> "BTR-E102"
  | Control_reserve_tight -> "BTR-W103"
  | Schedule_invalid -> "BTR-E203"
  | Mode_missing -> "BTR-E301"
  | Transition_missing -> "BTR-E302"
  | Recovery_bound_exceeded -> "BTR-E303"
  | Recovery_bound_understated -> "BTR-W304"
  | Selective_omission_undetectable -> "BTR-E305"
  | Omission_needs_corroboration -> "BTR-W306"
  | Transition_target_unknown -> "BTR-E401"
  | Orphan_mode -> "BTR-E402"
  | Evidence_unroutable -> "BTR-E403"
  | Evidence_budget_dominant -> "BTR-W404"

(* Total inverse of [code_id] over [all_codes], built once from the
   list itself so a new constructor cannot desync the two: extending
   [code] without extending [all_codes] is caught by the exhaustiveness
   check below (and by the round-trip unit test). *)
let code_of_id =
  let table = List.map (fun c -> (code_id c, c)) all_codes in
  fun id -> List.assoc_opt id table

let () =
  (* Tripwire at module init: every listed code must round-trip. *)
  List.iter
    (fun c ->
      match code_of_id (code_id c) with
      | Some c' when c' = c -> ()
      | _ -> invalid_arg "Check.code_of_id: all_codes and code_id desynced")
    all_codes

let severity_of = function
  | Link_oversubscribed | Data_reserve_exceeded | Schedule_invalid | Mode_missing | Transition_missing
  | Recovery_bound_exceeded | Selective_omission_undetectable
  | Transition_target_unknown | Orphan_mode | Evidence_unroutable ->
    Error
  | Control_reserve_tight | Recovery_bound_understated | Omission_needs_corroboration
  | Evidence_budget_dominant ->
    Warning

let describe = function
  | Link_oversubscribed ->
    "per-member static reservations must fit inside each link's raw capacity (§2.1)"
  | Data_reserve_exceeded ->
    "each sender's per-period data traffic must fit its reserved slice in every mode (§2.1)"
  | Control_reserve_tight ->
    "one evidence record should serialize on every control reservation within a period (§4.3)"
  | Schedule_invalid ->
    "every mode's static table must pass independent validation (§4.1)"
  | Mode_missing -> "every fault set of size ≤ f needs a plan (Def. 3.1)"
  | Transition_missing ->
    "every reachable one-fault extension needs a staged transition (Def. 3.1)"
  | Recovery_bound_exceeded ->
    "every transition's recovery bound must fit inside R (Def. 3.1)"
  | Recovery_bound_understated ->
    "stored recovery bounds must cover detection + evidence + migration + activation (§4.4)"
  | Selective_omission_undetectable ->
    "a sender omitting toward a minimal watcher subset must still be caught within R under the configured strike threshold (Def. 3.1, §4.2)"
  | Omission_needs_corroboration ->
    "selective omission on this config is caught within R only by multi-watcher corroboration, not by any single watchdog (§4.2)"
  | Transition_target_unknown -> "transitions must connect known modes (§4.4)"
  | Orphan_mode -> "every mode must be reachable from the fault-free root (§4.4)"
  | Evidence_unroutable ->
    "evidence must be routable between every pair of survivors on control bandwidth (§4.3)"
  | Evidence_budget_dominant ->
    "evidence distribution should not dominate the recovery budget (§4.3)"

type locus = {
  faulty : int list option;
  node : int option;
  flow : int option;
  link : int option;
  new_fault : int option;
}

let no_locus = { faulty = None; node = None; flow = None; link = None; new_fault = None }

type diagnostic = { code : code; message : string; locus : locus }

type report = {
  diagnostics : diagnostic list;
  modes : int;
  transitions : int;
  fault_sets : int;
}

let passed r =
  List.for_all (fun d -> severity_of d.code <> Error) r.diagnostics

let errors r = List.filter (fun d -> severity_of d.code = Error) r.diagnostics

type view = {
  config : Planner.config;
  workload : Graph.t;
  topology : Topology.t;
  plans : Planner.plan list;
  transitions : Planner.transition list;
}

let view_of_strategy s =
  {
    config = Planner.config s;
    workload = Planner.workload s;
    topology = Planner.topology s;
    plans = Planner.all_plans s;
    transitions = Planner.all_transitions s;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

let pp_fault_set ppf fs =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int fs))

let pp_diagnostic ppf d =
  Format.fprintf ppf "[%s]" (code_id d.code);
  Option.iter (fun fs -> Format.fprintf ppf " mode %a:" pp_fault_set fs) d.locus.faulty;
  Format.fprintf ppf " %s" d.message

let pp_report ppf r =
  Format.fprintf ppf "@[<v>checked %d modes, %d transitions, %d fault sets: %s"
    r.modes r.transitions r.fault_sets
    (if passed r then "PASS" else "FAIL");
  List.iter (fun d -> Format.fprintf ppf "@,%a" pp_diagnostic d) r.diagnostics;
  Format.fprintf ppf "@]"

let encode_diagnostic b d =
  Buffer.add_string b "{\"code\":\"";
  Buffer.add_string b (code_id d.code);
  Buffer.add_string b "\",\"severity\":\"";
  Buffer.add_string b (severity_name (severity_of d.code));
  Buffer.add_string b "\",\"message\":\"";
  Flat_json.escape b d.message;
  Buffer.add_char b '"';
  Option.iter
    (fun fs ->
      Buffer.add_string b ",\"faulty\":[";
      List.iteri
        (fun i n ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (string_of_int n))
        fs;
      Buffer.add_char b ']')
    d.locus.faulty;
  let opt_int key v =
    Option.iter
      (fun n ->
        Buffer.add_string b ",\"";
        Buffer.add_string b key;
        Buffer.add_string b "\":";
        Buffer.add_string b (string_of_int n))
      v
  in
  opt_int "node" d.locus.node;
  opt_int "flow" d.locus.flow;
  opt_int "link" d.locus.link;
  opt_int "new_fault" d.locus.new_fault;
  Buffer.add_char b '}'

let diagnostic_to_json d =
  let b = Buffer.create 128 in
  encode_diagnostic b d;
  Buffer.contents b

(* Stable total order on diagnostics for the JSON rendering: severity
   (errors first), then code, locus, message. Insensitive to check
   emission order, so two byte-identical reports stay byte-identical in
   JSON even if the verifier's internal sweep order ever changes. *)
let compare_diagnostic d1 d2 =
  let sev c = match severity_of c with Error -> 0 | Warning -> 1 in
  let cmp_opt cmp a b =
    match (a, b) with
    | None, None -> 0
    | None, Some _ -> -1
    | Some _, None -> 1
    | Some x, Some y -> cmp x y
  in
  let ( <?> ) c next = if c <> 0 then c else next () in
  Int.compare (sev d1.code) (sev d2.code) <?> fun () ->
  String.compare (code_id d1.code) (code_id d2.code) <?> fun () ->
  cmp_opt (List.compare Int.compare) d1.locus.faulty d2.locus.faulty <?> fun () ->
  cmp_opt Int.compare d1.locus.node d2.locus.node <?> fun () ->
  cmp_opt Int.compare d1.locus.flow d2.locus.flow <?> fun () ->
  cmp_opt Int.compare d1.locus.link d2.locus.link <?> fun () ->
  cmp_opt Int.compare d1.locus.new_fault d2.locus.new_fault <?> fun () ->
  String.compare d1.message d2.message

let report_to_json r =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "{\"verdict\":\"%s\",\"modes\":%d,\"transitions\":%d,\"fault_sets\":%d,\"diagnostics\":["
       (if passed r then "pass" else "fail")
       r.modes r.transitions r.fault_sets);
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char b ',';
      encode_diagnostic b d)
    (List.stable_sort compare_diagnostic r.diagnostics);
  Buffer.add_string b "]}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The checks. Each takes the view and appends diagnostics.            *)

let key faulty = List.sort_uniq Int.compare faulty

let shares_of v = Net.shares_for v.topology v.config.Planner.shares

let alive_of v faulty =
  List.filter (fun n -> not (List.mem n faulty)) (Topology.nodes v.topology)

(* The verifier's own route table for a mode: it never reads the
   planner's. *)
let mode_routes v faulty =
  Topology.router v.topology ~usable:(fun n -> not (List.mem n faulty))

(* Each verification unit returns its diagnostics as a list, in the
   order the old push-based checks emitted them. [verify_units]
   composes the units; {!Incr} substitutes memoizing wrappers for the
   four it reuses across edits, so incremental and from-scratch
   verification run literally the same code on a memo miss — the
   equivalence guarantee is by construction, not by parallel
   implementation. *)

(* (a) Static reservations fit inside every link (babbling-idiot guard). *)
let link_capacity_diags v =
  let s = shares_of v in
  List.filter_map
    (fun (l : Topology.link) ->
      let members = float_of_int (List.length l.members) in
      let total = members *. (s.Net.data_frac +. s.Net.control_frac) in
      if total > 1.0 +. 1e-9 then
        Some
          {
            code = Link_oversubscribed;
            message =
              Printf.sprintf
                "link %d: %d members x (data %.3f + control %.3f) = %.1f%% of capacity"
                l.link_id (List.length l.members) s.Net.data_frac
                s.Net.control_frac (100. *. total);
            locus = { no_locus with link = Some l.link_id };
          }
      else None)
    (Topology.links v.topology)

(* (a') Per mode: the data bytes each sender pushes per period fit its
   reserved slice on every link its routes traverse. *)
let data_reserve_diags v (p : Planner.plan) =
  let shares = shares_of v in
  let g = p.Planner.aug.Augment.graph in
  let period = Graph.period g in
  (* (sender, link_id) -> bytes per period, plus one witness flow *)
  let demand = Hashtbl.create 64 in
  let routes = mode_routes v p.Planner.faulty in
  List.iter
    (fun (fl : Graph.flow) ->
      match
        ( Schedule.node_of p.Planner.schedule fl.producer,
          Schedule.node_of p.Planner.schedule fl.consumer )
      with
      | Some src, Some dst when src <> dst -> (
        match Topology.path routes ~src ~dst with
        | None -> ()
        | Some path ->
          let here = ref src in
          List.iter
            (fun (link : Topology.link) ->
              let k = (!here, link.link_id) in
              let bytes, _ =
                Option.value ~default:(0, fl.flow_id) (Hashtbl.find_opt demand k)
              in
              Hashtbl.replace demand k (bytes + fl.msg_size, fl.flow_id);
              here := Topology.next_hop_node v.topology ~here:!here ~link ~dst)
            path)
      | _ -> ())
    (Graph.flows g);
  let out = ref [] in
  Table.sorted_iter
    ~cmp:(fun (n1, l1) (n2, l2) ->
      match Int.compare n1 n2 with 0 -> Int.compare l1 l2 | c -> c)
    (fun (sender, link_id) (bytes, witness) ->
      let link = Topology.find_link v.topology link_id in
      let rate = Net.reservation_rate shares link Net.Data in
      (* bytes per period vs. rate bytes/s: demand in bytes/s *)
      let demand_bps = bytes * 1_000_000 / Stdlib.max 1 period in
      if demand_bps > rate then
        out :=
          {
            code = Data_reserve_exceeded;
            message =
              Printf.sprintf
                "node %d on link %d: %dB per period needs %dB/s, reserve is %dB/s"
                sender link_id bytes demand_bps rate;
            locus =
              {
                no_locus with
                faulty = Some p.Planner.faulty;
                node = Some sender;
                flow = Some witness;
                link = Some link_id;
              };
          }
          :: !out)
    demand;
  List.rev !out

(* (a'') Control reservations can carry one evidence record per period. *)
let control_reserve_diags v =
  let s = shares_of v in
  let period = Graph.period v.workload in
  List.filter_map
    (fun (l : Topology.link) ->
      let rate = Net.reservation_rate s l Net.Control in
      let serialize =
        Stdlib.max 1 (Planner.evidence_size * 1_000_000 / rate)
      in
      if Time.compare serialize period > 0 then
        Some
          {
            code = Control_reserve_tight;
            message =
              Printf.sprintf
                "link %d: serializing one %dB evidence record takes %s > period %s"
                l.link_id Planner.evidence_size (Time.to_string serialize)
                (Time.to_string period);
            locus = { no_locus with link = Some l.link_id };
          }
      else None)
    (Topology.links v.topology)

(* (b) Independent re-validation of the mode's static table. *)
let schedule_valid_diags v (p : Planner.plan) =
  let g = p.Planner.aug.Augment.graph in
  let xfer = Net.route_transfer_time (mode_routes v p.Planner.faulty) (shares_of v) ~cls:Net.Data in
  match Schedule.validate p.Planner.schedule g ~xfer with
  | exception Invalid_argument msg ->
    (* A table referencing tasks the mode's graph does not declare
       is invalid, not a verifier crash. *)
    [
      {
        code = Schedule_invalid;
        message = msg;
        locus = { no_locus with faulty = Some p.Planner.faulty };
      };
    ]
  | Ok () -> []
  | Error msg ->
    [
      {
        code = Schedule_invalid;
        message = msg;
        locus = { no_locus with faulty = Some p.Planner.faulty };
      };
    ]

(* (c) Definition 3.1 coverage: every fault set of size ≤ f has a plan,
   every one-fault extension a transition, every transition fits R. *)

(* First-wins indexes over the view's plan and transition lists: the
   same lookup results as the original [List.find_opt] scans (first
   match in list order) at O(1) per query instead of O(modes), which
   matters once coverage enumerates thousands of fault patterns. *)
let index_plans v =
  let idx : (int list, Planner.plan) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (p : Planner.plan) ->
      if not (Hashtbl.mem idx p.Planner.faulty) then
        Hashtbl.add idx p.Planner.faulty p)
    v.plans;
  idx

let index_transitions v =
  let idx : (int list * int, Planner.transition) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (tr : Planner.transition) ->
      let k = (tr.Planner.from_faulty, tr.Planner.new_fault) in
      if not (Hashtbl.mem idx k) then Hashtbl.add idx k tr)
    v.transitions;
  idx

(* [evb] is the (possibly memoized) evidence-bound oracle; coverage
   asks for the same fault set once per contained fault, so even the
   from-scratch path profits from the per-pass memo in [verify_units]. *)
let coverage_diags v ~evb push =
  let plan_idx = index_plans v in
  let tr_idx = index_transitions v in
  let plan_for faulty = Hashtbl.find_opt plan_idx (key faulty) in
  let transition_for ~from_faulty ~new_fault =
    Hashtbl.find_opt tr_idx (key from_faulty, new_fault)
  in
  let r = v.config.Planner.recovery_bound in
  let patterns = Planner.fault_patterns (Topology.nodes v.topology) v.config.Planner.f in
  List.iter
    (fun faulty ->
      match plan_for faulty with
      | None ->
        push
          {
            code = Mode_missing;
            message =
              Printf.sprintf "fault set of size %d has no plan" (List.length faulty);
            locus = { no_locus with faulty = Some faulty };
          }
      | Some to_plan ->
        List.iter
          (fun y ->
            let from_faulty = List.filter (fun x -> x <> y) faulty in
            if plan_for from_faulty <> None then
              match transition_for ~from_faulty ~new_fault:y with
              | None ->
                push
                  {
                    code = Transition_missing;
                    message =
                      Format.asprintf "no transition %a -> %a" pp_fault_set
                        from_faulty pp_fault_set faulty;
                    locus =
                      { no_locus with faulty = Some from_faulty; new_fault = Some y };
                  }
              | Some tr ->
                if Time.compare tr.Planner.recovery_bound r > 0 then
                  push
                    {
                      code = Recovery_bound_exceeded;
                      message =
                        Format.asprintf
                          "transition %a -> %a: recovery bound %a > R = %a"
                          pp_fault_set from_faulty pp_fault_set faulty Time.pp
                          tr.Planner.recovery_bound Time.pp r;
                      locus =
                        {
                          no_locus with
                          faulty = Some from_faulty;
                          new_fault = Some y;
                        };
                    };
                (* Recompose the bound from the paper's architecture:
                   detection (one period + margin) + evidence
                   distribution + state migration + activation at the
                   next period boundary (§4.4). *)
                let period = Graph.period to_plan.Planner.aug.Augment.graph in
                let floor_bound =
                  Time.add
                    (Time.add
                       (Time.add period Planner.detection_margin)
                       (evb faulty))
                    (Time.add tr.Planner.migration_bound period)
                in
                if Time.compare tr.Planner.recovery_bound floor_bound < 0 then
                  push
                    {
                      code = Recovery_bound_understated;
                      message =
                        Format.asprintf
                          "transition %a -> %a: stored bound %a < recomputed %a"
                          pp_fault_set from_faulty pp_fault_set faulty Time.pp
                          tr.Planner.recovery_bound Time.pp floor_bound;
                      locus =
                        {
                          no_locus with
                          faulty = Some from_faulty;
                          new_fault = Some y;
                        };
                    })
          faulty)
    patterns;
  List.length patterns

(* (c') Selective omission (the §4.2 gap): a faulty sender need not go
   silent toward everyone — omitting toward a carefully chosen minority
   of watchers can starve every lane of a protected output while each
   individual watchdog stays below its declaration threshold. This
   check enumerates, per mode and per candidate sender F, the minimal
   set of watcher hosts F must omit toward to cut every live lane of
   each protected sink flow, and bounds the resulting detection time
   two ways: the direct path (one watcher sustains [strikes]
   consecutive missed sweeps, declares, and the suspect-path cover
   evicts F) and the corroboration path (when the minimal cut already
   touches >= f+1 watchers, their first-sweep suspicions corroborate).
   Scope: only direct sender cuts are modeled — F omitting as a relay
   on someone else's route (ring topologies) is a documented
   limitation, kept out so that relay topologies are not rejected for
   patterns the campaign generator cannot produce either. *)

type omission_witness = {
  ow_mode : int list;  (* the plan's faulty set the sender attacks from *)
  ow_sender : int;
  ow_targets : int list;  (* minimal watcher hosts to omit toward *)
  ow_flow : int;  (* original sink flow starved *)
  ow_watchers : int;  (* = List.length ow_targets *)
}

(* Smallest subset of [List.concat sets] hitting every set, smallest
   then lexicographically first; sets must be nonempty. *)
let min_hitting_set sets =
  let candidates = List.sort_uniq Int.compare (List.concat sets) in
  let rec combos k lst =
    if k = 0 then [ [] ]
    else
      match lst with
      | [] -> []
      | x :: rest -> List.map (fun c -> x :: c) (combos (k - 1) rest) @ combos k rest
  in
  let hits w set = List.exists (fun x -> List.mem x w) set in
  let rec try_k k =
    if k > List.length candidates then None
    else
      match
        List.find_opt
          (fun w -> List.for_all (hits w) sets)
          (combos k candidates)
      with
      | Some w -> Some w
      | None -> try_k (k + 1)
  in
  try_k 1

(* Per (plan, sender) worst flow the sender can starve by selective
   omission, with its minimal watcher cut and both detection bounds. *)
type omission_case = {
  oc_plan : Planner.plan;
  oc_sender : int;
  oc_flow : int;
  oc_targets : int list;
  oc_direct : Time.t;  (* detection via one watcher reaching [strikes] *)
  oc_corro : Time.t option;  (* via corroboration, when the cut >= f+1 *)
  oc_fatal : bool;  (* no path fits inside R *)
}

(* Per protected sink flow (in [Planner.protected_sink_flows] order): the
   minimal watcher cut [sender] must omit toward to starve that flow in
   mode [p], or [None] when the flow is shed in this mode, some lane
   has no direct hop from the sender, or no hitting set exists. This is
   a pure function of the mode's structure — R, strikes and evidence
   bounds do not enter — so the memo layer keys it on the strategy
   digest and fault pattern alone and replays the cheap R-dependent
   selection. *)
let omission_cut_rows v (p : Planner.plan) ~sender =
  let aug = p.Planner.aug in
  let g = aug.Augment.graph in
  let host tid = Schedule.node_of p.Planner.schedule tid in
  (* Live lane chains per protected original sink flow: the delivery
     hop plus the transitive producer closure behind it, all assigned
     in this mode. *)
  let chains_of (orig_fl : Graph.flow) =
    List.filter_map
      (fun (fl : Graph.flow) ->
        match Augment.orig_flow_of aug fl.flow_id with
        | Some (ofid, _) when ofid = orig_fl.Graph.flow_id ->
          if Augment.orig_of aug fl.consumer <> orig_fl.Graph.consumer then None
          else begin
            let closure = Hashtbl.create 16 in
            let rec go tid =
              if not (Hashtbl.mem closure tid) then begin
                Hashtbl.replace closure tid ();
                List.iter
                  (fun (pf : Graph.flow) -> go pf.producer)
                  (Graph.producers_of g tid)
              end
            in
            go fl.producer;
            let live =
              host fl.consumer <> None
              && Table.sorted_fold ~cmp:Int.compare
                   (fun tid () acc -> acc && host tid <> None)
                   closure true
            in
            if not live then None
            else
              let hops =
                fl
                :: List.filter
                     (fun (hf : Graph.flow) -> Hashtbl.mem closure hf.consumer)
                     (Graph.flows g)
              in
              Some hops
          end
        | _ -> None)
      (Graph.flows g)
  in
  List.map
    (fun (orig_fl : Graph.flow) ->
      match chains_of orig_fl with
      | [] -> None (* flow not carried in this mode: shed *)
      | chains ->
        let cuts =
          List.map
            (fun hops ->
              List.sort_uniq Int.compare
                (List.filter_map
                   (fun (hf : Graph.flow) ->
                     match (host hf.producer, host hf.consumer) with
                     | Some ph, Some ch when ph = sender && ch <> sender -> Some ch
                     | _ -> None)
                   hops))
            chains
        in
        if List.for_all (fun c -> c <> []) cuts then
          match min_hitting_set cuts with
          | None -> None
          | Some targets -> Some (orig_fl.Graph.flow_id, targets)
        else None)
    (Planner.protected_sink_flows v.config v.workload)

(* Replays the worst-flow selection over precomputed cut rows. The old
   in-line code short-circuited once a fatal flow was found; under the
   [better] rule a later flow can never displace a fatal winner, so
   scanning every row yields the identical case list. *)
let omission_cases v ~strikes ~evb ~cuts =
  let r = v.config.Planner.recovery_bound in
  let f = v.config.Planner.f in
  let threshold = f + 1 in
  let tr_idx = index_transitions v in
  let cases = ref [] in
  List.iter
    (fun (p : Planner.plan) ->
      if List.length p.Planner.faulty < f then begin
        let g = p.Planner.aug.Augment.graph in
        let alive = alive_of v p.Planner.faulty in
        List.iter
          (fun sender ->
            match Hashtbl.find_opt tr_idx (key p.Planner.faulty, sender) with
            | None -> () (* E302 owns the missing transition *)
            | Some tr ->
              let period = Graph.period g in
              let margin = Planner.watchdog_margin ~period in
              let faulty' = key (sender :: p.Planner.faulty) in
              let base =
                Time.add
                  (Time.add margin (evb faulty'))
                  (Time.add tr.Planner.migration_bound (Time.mul period 2))
              in
              let direct = Time.add (Time.mul period strikes) base in
              let corro = Time.add period base in
              (* Worst flow for this sender: prefer a fatal one. *)
              let worst = ref None in
              List.iter
                (fun row ->
                  match (!worst, row) with
                  | Some (_, _, true), _ | _, None -> ()
                  | _, Some (flow_id, targets) ->
                    let m = List.length targets in
                    let corro_applies = m >= threshold in
                    let detectable =
                      Time.compare direct r <= 0
                      || (corro_applies && Time.compare corro r <= 0)
                    in
                    let fatal = not detectable in
                    let needs_corro = detectable && Time.compare direct r > 0 in
                    if fatal || needs_corro then
                      let better =
                        match !worst with
                        | None -> true
                        | Some (_, _, was_fatal) -> fatal && not was_fatal
                      in
                      if better then
                        worst := Some (flow_id, (targets, corro_applies), fatal))
                (cuts p ~sender);
              (match !worst with
              | None -> ()
              | Some (flow, (targets, corro_applies), fatal) ->
                cases :=
                  {
                    oc_plan = p;
                    oc_sender = sender;
                    oc_flow = flow;
                    oc_targets = targets;
                    oc_direct = direct;
                    oc_corro = (if corro_applies then Some corro else None);
                    oc_fatal = fatal;
                  }
                  :: !cases))
          alive
      end)
    v.plans;
  List.rev !cases

let selective_omission_cases v ~strikes =
  omission_cases v ~strikes
    ~evb:(fun faulty -> Planner.evidence_bound v.config v.topology ~faulty)
    ~cuts:(fun p ~sender -> omission_cut_rows v p ~sender)

let omission_diags v ~strikes cases =
  let r = v.config.Planner.recovery_bound in
  List.map
    (fun c ->
      let p = c.oc_plan in
      if c.oc_fatal then
        {
          code = Selective_omission_undetectable;
          message =
            Format.asprintf
              "node %d can starve flow %d by omitting toward %a (%d watcher%s, \
               strikes=%d): detection needs %a > R = %a"
              c.oc_sender c.oc_flow pp_fault_set c.oc_targets
              (List.length c.oc_targets)
              (if List.length c.oc_targets = 1 then "" else "s")
              strikes Time.pp c.oc_direct Time.pp r;
          locus =
            {
              no_locus with
              faulty = Some p.Planner.faulty;
              node = Some c.oc_sender;
              flow = Some c.oc_flow;
            };
        }
      else
        {
          code = Omission_needs_corroboration;
          message =
            Format.asprintf
              "node %d starving flow %d (omitting toward %a) is caught within \
               R = %a only by %d-watcher corroboration (single-watchdog \
               detection needs %a)"
              c.oc_sender c.oc_flow pp_fault_set c.oc_targets Time.pp r
              (List.length c.oc_targets) Time.pp c.oc_direct;
          locus =
            {
              no_locus with
              faulty = Some p.Planner.faulty;
              node = Some c.oc_sender;
              flow = Some c.oc_flow;
            };
        })
    cases

let selective_omission_witnesses ?(strikes = 1) v =
  List.filter_map
    (fun c ->
      if c.oc_fatal then
        Some
          {
            ow_mode = c.oc_plan.Planner.faulty;
            ow_sender = c.oc_sender;
            ow_targets = c.oc_targets;
            ow_flow = c.oc_flow;
            ow_watchers = List.length c.oc_targets;
          }
      else None)
    (selective_omission_cases v ~strikes)

(* (d) Mode-graph sanity: transitions connect known modes, every mode
   is reachable from the fault-free root, evidence can flood in every
   mode, and its bound leaves room for the rest of the recovery. *)
let transition_sanity_diags v =
  let known : (int list, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (p : Planner.plan) -> Hashtbl.replace known p.Planner.faulty ())
    v.plans;
  List.concat_map
    (fun (tr : Planner.transition) ->
      List.filter_map
        (fun (name, fs) ->
          if not (Hashtbl.mem known (key fs)) then
            Some
              {
                code = Transition_target_unknown;
                message =
                  Format.asprintf "transition %a -> %a: %s mode has no plan"
                    pp_fault_set tr.Planner.from_faulty pp_fault_set
                    tr.Planner.to_faulty name;
                locus =
                  {
                    no_locus with
                    faulty = Some fs;
                    new_fault = Some tr.Planner.new_fault;
                  };
              }
          else None)
        [ ("source", tr.Planner.from_faulty); ("target", tr.Planner.to_faulty) ])
    v.transitions

(* Reachability from the fault-free root over the transition graph,
   with transitions indexed by source mode so the walk is linear in
   edges rather than modes × transitions. *)
let orphan_mode_diags v =
  let known = List.map (fun (p : Planner.plan) -> p.Planner.faulty) v.plans in
  if not (List.mem [] known) then []
  else begin
    let by_from : (int list, Planner.transition list) Hashtbl.t =
      Hashtbl.create 64
    in
    List.iter
      (fun (tr : Planner.transition) ->
        let prev =
          Option.value ~default:[] (Hashtbl.find_opt by_from tr.Planner.from_faulty)
        in
        Hashtbl.replace by_from tr.Planner.from_faulty (tr :: prev))
      v.transitions;
    let visited = Hashtbl.create 16 in
    let rec visit fs =
      if not (Hashtbl.mem visited fs) then begin
        Hashtbl.replace visited fs ();
        List.iter
          (fun (tr : Planner.transition) -> visit (key tr.Planner.to_faulty))
          (Option.value ~default:[] (Hashtbl.find_opt by_from fs))
      end
    in
    visit [];
    List.filter_map
      (fun fs ->
        if not (Hashtbl.mem visited fs) then
          Some
            {
              code = Orphan_mode;
              message = "mode is unreachable from the fault-free root";
              locus = { no_locus with faulty = Some fs };
            }
        else None)
      known
  end

(* (d') Per mode: evidence routable between every pair of survivors.
   Fast path: one BFS from the first survivor — link connectivity is an
   equivalence relation over usable nodes, so "first reaches all" is
   exactly "every pair is routable" and the all-clear costs
   O(memberships) instead of O(n³). Any failure falls back to the
   pairwise probe to report the identical per-pair diagnostics. *)
let evidence_routes_diags v (p : Planner.plan) =
  let faulty = p.Planner.faulty in
  let alive = alive_of v faulty in
  let all_connected =
    match alive with
    | [] -> true
    | first :: rest ->
      let sweep =
        Topology.paths_from v.topology
          ~usable:(fun n -> not (List.mem n faulty))
          ~src:first
      in
      List.for_all (fun n -> Topology.reached sweep n) rest
  in
  if all_connected then []
  else begin
    let routes = mode_routes v faulty in
    let out = ref [] in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a < b then
              match Topology.path routes ~src:a ~dst:b with
              | Some _ -> ()
              | None ->
                out :=
                  {
                    code = Evidence_unroutable;
                    message =
                      Printf.sprintf "no control route between survivors %d and %d"
                        a b;
                    locus = { no_locus with faulty = Some faulty; node = Some a };
                  }
                  :: !out)
          alive)
      alive;
    List.rev !out
  end

(* ------------------------------------------------------------------ *)
(* Composition. The [units] record is the seam {!Incr} replaces with
   memoizing wrappers; [verify_units default_units] is the from-scratch
   verifier. Emission order below replicates the historical push order
   exactly, so reports are byte-identical across both paths. *)

type units = {
  u_data_reserves : view -> Planner.plan -> diagnostic list;
  u_schedule_valid : view -> Planner.plan -> diagnostic list;
  u_evb : view -> int list -> Time.t;
  u_omission_cuts :
    view -> Planner.plan -> sender:int -> (int * int list) option list;
}

let default_units =
  {
    u_data_reserves = data_reserve_diags;
    u_schedule_valid = schedule_valid_diags;
    u_evb = (fun v faulty -> Planner.evidence_bound v.config v.topology ~faulty);
    u_omission_cuts = omission_cut_rows;
  }

let verify_units ?(obs = Obs.null) ?(strikes = 1) u v =
  let rev = ref [] in
  let push d = rev := d :: !rev in
  let push_all ds = List.iter push ds in
  (* One evidence-bound memo per pass: coverage, omission and the
     budget check ask for overlapping fault sets. *)
  let evb_tbl : (int list, Time.t) Hashtbl.t = Hashtbl.create 64 in
  let evb faulty =
    let k = key faulty in
    match Hashtbl.find_opt evb_tbl k with
    | Some t -> t
    | None ->
      let t = u.u_evb v k in
      Hashtbl.add evb_tbl k t;
      t
  in
  push_all (link_capacity_diags v);
  List.iter (fun p -> push_all (u.u_data_reserves v p)) v.plans;
  push_all (control_reserve_diags v);
  List.iter (fun p -> push_all (u.u_schedule_valid v p)) v.plans;
  let fault_sets = coverage_diags v ~evb push in
  push_all
    (omission_diags v ~strikes
       (omission_cases v ~strikes ~evb
          ~cuts:(fun p ~sender -> u.u_omission_cuts v p ~sender)));
  push_all (transition_sanity_diags v);
  push_all (orphan_mode_diags v);
  List.iter
    (fun (p : Planner.plan) ->
      push_all (evidence_routes_diags v p);
      let faulty = p.Planner.faulty in
      if faulty <> [] then begin
        let eb = evb faulty in
        if Time.compare (Time.mul eb 2) v.config.Planner.recovery_bound > 0 then
          push
            {
              code = Evidence_budget_dominant;
              message =
                Format.asprintf
                  "evidence distribution bound %a exceeds half of R = %a" Time.pp
                  eb Time.pp v.config.Planner.recovery_bound;
              locus = { no_locus with faulty = Some faulty };
            }
      end)
    v.plans;
  let diagnostics =
    let all = List.rev !rev in
    List.filter (fun d -> severity_of d.code = Error) all
    @ List.filter (fun d -> severity_of d.code = Warning) all
  in
  let report =
    {
      diagnostics;
      modes = List.length v.plans;
      transitions = List.length v.transitions;
      fault_sets;
    }
  in
  if Obs.enabled obs then
    List.iter
      (fun d ->
        Obs.emit obs ~at:Time.zero
          ?node:d.locus.node Obs.Check
          (Obs.Check_diagnostic
             {
               code = code_id d.code;
               severity = severity_name (severity_of d.code);
               detail = Format.asprintf "%a" pp_diagnostic d;
             }))
      report.diagnostics;
  report

let verify_view ?obs ?strikes v = verify_units ?obs ?strikes default_units v
let verify ?obs ?strikes s = verify_view ?obs ?strikes (view_of_strategy s)

let to_planner_error r =
  if passed r then None
  else
    Some
      (Planner.Rejected
         {
           diagnostics =
             List.map
               (fun d -> (code_id d.code, Format.asprintf "%a" pp_diagnostic d))
               (errors r);
         })
