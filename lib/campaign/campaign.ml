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

let share_str = function
  | None -> "default"
  | Some c -> Printf.sprintf "%.6f" c

let pp_params ppf p =
  Format.fprintf ppf "%s/%s n=%d f=%d R=%a bw=%d protect=%a share=%s"
    p.workload p.topology p.nodes p.f Time.pp p.r p.bandwidth_bps
    Task.pp_criticality p.protect (share_str p.control_share)

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
      else Ok ())

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

(* Workload generators are deterministic in (campaign seed, params), so
   every trial of a configuration sees the same graph — a requirement
   for the plan cache to be sound. *)
let workload_seed seed = (seed * 7919) + 17

let workload_of ~seed p =
  match p.workload with
  | "avionics" -> Ok (Generators.avionics ~n_nodes:p.nodes)
  | "scada" -> Ok (Generators.scada ~n_nodes:p.nodes)
  | "random" ->
    Ok
      (Generators.random_layered
         ~rng:(Rng.create (workload_seed seed))
         ~n_nodes:p.nodes ~layers:3 ~width:3 ())
  | other -> Error (Printf.sprintf "unknown workload %S" other)

let topology_of p =
  let latency = Time.us 50 in
  match p.topology with
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
    (Planner.config_key
       { (resolved_config p) with Planner.recovery_bound = Time.zero })
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

module Cache = struct
  (* Sharded by the FNV-1a hash of the plan key: lookups are O(1) in a
     per-shard hash table (the old single-mutex assoc list re-scanned
     every entry under one global lock, serializing all workers), and
     contention is confined to workers racing on the same shard. The
     hash is stable (never [Hashtbl.hash]) so the shard layout — and
     with it the contention profile — is identical on every host. *)
  let shard_bits = 4

  let shard_count = 1 lsl shard_bits

  type shard = {
    table : (string, (Planner.t, string) Stdlib.result) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
    lock : Mutex.t;
  }

  type t = {
    seed : int;
    shards : shard array;
    (* First fully-planned strategy per R-stripped config, for deriving
       R-grid neighbors without replanning. Guarded by [base_lock];
       lock order is always shard lock, then base lock. *)
    by_base : (string, Planner.t) Hashtbl.t;
    base_lock : Mutex.t;
    mutable derived_strategies : int;
  }

  let create ~seed =
    {
      seed;
      shards =
        Array.init shard_count (fun _ ->
            { table = Hashtbl.create 16; hits = 0; misses = 0; lock = Mutex.create () });
      by_base = Hashtbl.create 16;
      base_lock = Mutex.create ();
      derived_strategies = 0;
    }

  let runtime_config ?strikes () =
    match strikes with
    | None -> Btr.Runtime.default_config
    | Some k ->
      { Btr.Runtime.default_config with Btr.Runtime.omission_strikes = k }

  let build ?strikes ~seed p =
    match workload_of ~seed p with
    | Error m -> Error m
    | Ok workload -> (
      match topology_of p with
      | Error m -> Error m
      | Ok topology -> (
        let s =
          Btr.Scenario.spec ~workload ~topology ~f:p.f ~recovery_bound:p.r
            ~tune:(tune_of p) ()
        in
        (* Scenario.plan includes the Btr_check static gate: a strategy
           the verifier rejects is cached as an error, exactly once. *)
        match Btr.Scenario.plan ~config:(runtime_config ?strikes ()) s with
        | Ok strategy -> Ok strategy
        | Error e -> Error (Format.asprintf "%a" Planner.pp_error e)))

  let shard_of t key = t.shards.(Fnv.hash key land (shard_count - 1))

  (* Admission gate for a derived strategy, mirroring the one inside
     [Scenario.plan] that [build] runs: the static verifier with the
     requested (default unless overridden) runtime strike threshold,
     errors formatted identically. *)
  let admit ?strikes strategy =
    let strikes =
      (runtime_config ?strikes ()).Btr.Runtime.omission_strikes
    in
    let report = Btr_check.Check.verify ~strikes strategy in
    match Btr_check.Check.to_planner_error report with
    | None -> Ok strategy
    | Some e -> Error (Format.asprintf "%a" Planner.pp_error e)

  (* Planning happens while holding the shard lock: the planner is fast
     (<100ms for every grid point we generate), building a config twice
     would waste more than the lock hold costs, and only workers whose
     keys collide on this shard wait — the other 15 shards stay free. *)
  let strategy ?strikes t p =
    let key = plan_key ?strikes ~seed:t.seed p in
    let s = shard_of t key in
    Mutex.lock s.lock;
    match Hashtbl.find_opt s.table key with
    | Some v ->
      s.hits <- s.hits + 1;
      Mutex.unlock s.lock;
      v
    | None -> (
      let produce () =
        let bkey = base_plan_key ?strikes ~seed:t.seed p in
        Mutex.lock t.base_lock;
        let base = Hashtbl.find_opt t.by_base bkey in
        Mutex.unlock t.base_lock;
        match base with
        | Some b ->
          (* An R-grid neighbor of an already-planned config: reuse its
             plans in O(1) and replay only the R-dependent admission. *)
          Mutex.lock t.base_lock;
          t.derived_strategies <- t.derived_strategies + 1;
          Mutex.unlock t.base_lock;
          admit ?strikes (Planner.with_recovery_bound b p.r)
        | None ->
          let v = build ?strikes ~seed:t.seed p in
          (match v with
          | Ok strategy ->
            Mutex.lock t.base_lock;
            if not (Hashtbl.mem t.by_base bkey) then
              Hashtbl.add t.by_base bkey strategy;
            Mutex.unlock t.base_lock
          | Error _ -> ());
          v
      in
      match produce () with
      | v ->
        Hashtbl.replace s.table key v;
        s.misses <- s.misses + 1;
        Mutex.unlock s.lock;
        v
      | exception e ->
        Mutex.unlock s.lock;
        raise e)

  (* Counter reads take each shard's lock in turn, so totals are exact
     even while workers are still planning — reading the mutable fields
     bare would race with the increments above. *)
  let sum_locked f t =
    Array.fold_left
      (fun acc s ->
        Mutex.lock s.lock;
        let v = f s in
        Mutex.unlock s.lock;
        acc + v)
      0 t.shards

  let hits t = sum_locked (fun s -> s.hits) t
  let misses t = sum_locked (fun s -> s.misses) t

  let derived t =
    Mutex.lock t.base_lock;
    let v = t.derived_strategies in
    Mutex.unlock t.base_lock;
    v
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

let run_script ?strikes ~cache p ~runtime_seed script =
  match Cache.strategy ?strikes cache p with
  | Error m -> Rejected m
  | Ok strategy -> (
    try
      let period = Graph.period (Planner.workload strategy) in
      let horizon = horizon_for ~period ~r:p.r script in
      let config =
        {
          (Cache.runtime_config ?strikes ()) with
          Btr.Runtime.seed = runtime_seed;
        }
      in
      let rt = Btr.Runtime.create ~config ~script ~strategy () in
      Btr.Runtime.run rt ~horizon;
      let st = stats_of rt in
      if List.exists (fun rec_t -> Time.compare rec_t p.r > 0) st.recoveries then
        Violation st
      else Pass st
    with e -> Errored (Printexc.to_string e))

(* --- reproducer snippets ------------------------------------------- *)

let workload_expr ~wl_seed p =
  match p.workload with
  | "scada" -> Printf.sprintf "Btr_workload.Generators.scada ~n_nodes:%d" p.nodes
  | "random" ->
    Printf.sprintf
      "Btr_workload.Generators.random_layered ~rng:(Rng.create %d) ~n_nodes:%d \
       ~layers:3 ~width:3 ()"
      wl_seed p.nodes
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
  let verdict_of (t : trial) =
    {
      trial = t;
      outcome = run_script ~cache t.params ~runtime_seed:t.runtime_seed t.script;
    }
  in
  let slots = Array.make n None in
  if jobs = 1 || n <= 1 then
    Array.iteri (fun i t -> slots.(i) <- Some (verdict_of t)) trials
  else begin
    (* Workers claim chunks of consecutive indices with one atomic
       fetch-and-add each (the old design took a mutex per single index,
       so every trial boundary was a cross-domain synchronization) and
       write into distinct slots; per-trial determinism makes the slot
       contents independent of the interleaving. Chunks are ~1/8 of an
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
            slots.(i) <- Some (verdict_of trials.(i))
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
(* JSON artifacts                                                      *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_field b first key value =
  if not !first then Buffer.add_char b ',';
  first := false;
  Buffer.add_char b '"';
  json_escape b key;
  Buffer.add_string b "\":";
  Buffer.add_string b value

let add_int b first key v = add_field b first key (string_of_int v)

let add_str b first key v =
  let vb = Buffer.create (String.length v + 2) in
  Buffer.add_char vb '"';
  json_escape vb v;
  Buffer.add_char vb '"';
  add_field b first key (Buffer.contents vb)

let add_bool b first key v = add_field b first key (if v then "true" else "false")

let obj f =
  let b = Buffer.create 256 in
  let first = ref true in
  Buffer.add_char b '{';
  f b first;
  Buffer.add_char b '}';
  Buffer.contents b

let add_params b first (p : params) =
  add_str b first "workload" p.workload;
  add_str b first "topology" p.topology;
  add_int b first "nodes" p.nodes;
  add_int b first "f" p.f;
  add_int b first "r_us" p.r;
  add_int b first "bandwidth_bps" p.bandwidth_bps;
  add_str b first "protect" (Format.asprintf "%a" Task.pp_criticality p.protect);
  add_str b first "control_share" (share_str p.control_share)

let add_stats b first (st : run_stats) =
  add_int b first "worst_recovery_us" st.worst_recovery;
  add_int b first "recoveries" (List.length st.recoveries);
  add_int b first "incorrect_us" st.incorrect;
  add_int b first "deadline_miss_bp" st.deadline_miss_bp;
  add_int b first "correct_bp" st.correct_bp;
  add_int b first "bytes" st.bytes_sent;
  add_int b first "control_bytes" st.control_bytes;
  add_int b first "sim_events" st.sim_events;
  add_int b first "mode_changes" st.mode_changes;
  add_int b first "periods" st.periods

let verdict_json v =
  obj (fun b first ->
      add_int b first "trial" v.trial.index;
      add_params b first v.trial.params;
      add_int b first "seed" v.trial.runtime_seed;
      add_int b first "events" (List.length v.trial.script);
      add_str b first "script" (script_to_string v.trial.script);
      add_int b first "horizon_us" v.trial.horizon;
      add_str b first "verdict" (outcome_name v.outcome);
      match v.outcome with
      | Pass st | Violation st -> add_stats b first st
      | Rejected reason | Errored reason -> add_str b first "reason" reason)

let violation_json s =
  obj (fun b first ->
      add_int b first "violation" s.source.index;
      add_str b first "script" (script_to_string s.script);
      add_int b first "events" (List.length s.script);
      add_int b first "events_before" (List.length s.source.script);
      add_int b first "shrink_runs" s.shrink_runs;
      add_int b first "r_us" s.source.params.r;
      add_stats b first s.stats;
      add_str b first "snippet" s.snippet)

let fingerprint r = Fnv.to_hex (Fnv.hash64_lines (List.map verdict_json r.verdicts))

let grid_axes_str g =
  let commas f l = String.concat "," (List.map f l) in
  Printf.sprintf "w=%s|t=%s|n=%s|f=%s|r_us=%s|bw=%s|protect=%s|share=%s"
    (commas Fun.id g.workloads) (commas Fun.id g.topologies)
    (commas string_of_int g.node_counts)
    (commas string_of_int g.fault_bounds)
    (commas string_of_int g.recovery_bounds)
    (commas string_of_int g.bandwidths)
    (commas (Format.asprintf "%a" Task.pp_criticality) g.protect_levels)
    (commas share_str g.control_shares)

let result_json_lines r =
  let header =
    obj (fun b first ->
        add_int b first "campaign" 1;
        add_int b first "seed" r.spec.seed;
        add_int b first "trials" r.spec.trials;
        add_int b first "configs" r.configs;
        add_bool b first "shrink" r.spec.shrink;
        add_str b first "grid" (grid_axes_str r.spec.grid))
  in
  let tally pred = List.length (List.filter pred r.verdicts) in
  let summary =
    obj (fun b first ->
        add_int b first "total" (List.length r.verdicts);
        add_int b first "violations" (tally (fun v -> violates v.outcome));
        add_int b first "rejected"
          (tally (fun v -> match v.outcome with Rejected _ -> true | _ -> false));
        add_int b first "errors"
          (tally (fun v -> match v.outcome with Errored _ -> true | _ -> false));
        add_int b first "cache_hits" r.cache_hits;
        add_int b first "cache_misses" r.cache_misses;
        add_int b first "configs" r.configs;
        add_str b first "fingerprint" (fingerprint r))
  in
  (header :: List.map verdict_json r.verdicts)
  @ List.map violation_json r.violations
  @ [ summary ]

(* ------------------------------------------------------------------ *)
(* Flat JSON parsing (for `campaign report`)                           *)

module Flat_json = struct
  type value = Int of int | Float of float | Str of string | Bool of bool

  (* Shortest decimal form that parses back to the same float: try the
     15-digit form first, fall back to the always-exact 17 digits. Only
     meaningful for finite floats — this module never emits non-finite
     values. Integral floats keep a trailing '.' so the token stays
     float-shaped: "1" would re-parse as Int and break round-tripping. *)
  let float_repr f =
    let s = Printf.sprintf "%.15g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ "."

  let to_string fields =
    obj (fun b first ->
        List.iter
          (fun (k, v) ->
            match v with
            | Int i -> add_int b first k i
            | Float f -> add_field b first k (float_repr f)
            | Str s -> add_str b first k s
            | Bool v -> add_bool b first k v)
          fields)

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let expect c =
      match peek () with
      | Some x when x = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let skip_ws () =
      while
        match peek () with
        | Some (' ' | '\t' | '\n' | '\r') -> true
        | _ -> false
      do
        advance ()
      done
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some '/' -> Buffer.add_char b '/'; advance (); go ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
            | Some _ -> Buffer.add_char b '?'
            | None -> fail "bad \\u escape");
            pos := !pos + 4;
            go ()
          | _ -> fail "bad escape")
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_scalar () =
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some 't' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
          pos := !pos + 4;
          Bool true
        end
        else fail "bad literal"
      | Some 'f' ->
        if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
          pos := !pos + 5;
          Bool false
        end
        else fail "bad literal"
      | Some ('-' | '0' .. '9') ->
        let start = !pos in
        let is_num c =
          match c with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        in
        while (match peek () with Some c -> is_num c | None -> false) do
          advance ()
        done;
        let tok = String.sub s start (!pos - start) in
        (match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" tok)))
      | _ -> fail "expected a scalar value"
    in
    try
      skip_ws ();
      expect '{';
      skip_ws ();
      let fields = ref [] in
      (match peek () with
      | Some '}' -> advance ()
      | _ ->
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          skip_ws ();
          let v = parse_scalar () in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ());
      skip_ws ();
      if !pos <> n then fail "trailing input";
      Ok (List.rev !fields)
    with Bad m -> Error m
end

let grid_axes = grid_axes_str

let params_fields (p : params) =
  [
    ("workload", Flat_json.Str p.workload);
    ("topology", Flat_json.Str p.topology);
    ("nodes", Flat_json.Int p.nodes);
    ("f", Flat_json.Int p.f);
    ("r_us", Flat_json.Int p.r);
    ("bandwidth_bps", Flat_json.Int p.bandwidth_bps);
    ("protect", Flat_json.Str (Format.asprintf "%a" Task.pp_criticality p.protect));
    ("control_share", Flat_json.Str (share_str p.control_share));
  ]

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

let render_report lines =
  let open Flat_json in
  let parse_all () =
    List.filteri (fun _ l -> String.trim l <> "") lines
    |> List.map (fun l ->
           match parse l with
           | Ok fields -> fields
           | Error m -> raise (Bad (Printf.sprintf "%s in line %s" m l)))
  in
  match parse_all () with
  | exception Bad m -> Error m
  | objs ->
    let get fields k = List.assoc_opt k fields in
    let int_of fields k = match get fields k with Some (Int i) -> Some i | _ -> None in
    let str_of fields k = match get fields k with Some (Str s) -> Some s | _ -> None in
    let verdict_lines = List.filter (fun o -> int_of o "trial" <> None) objs in
    let violation_lines = List.filter (fun o -> int_of o "violation" <> None) objs in
    let summary = List.find_opt (fun o -> int_of o "total" <> None) objs in
    let buf = Buffer.create 1024 in
    let tally pred = List.length (List.filter pred verdict_lines) in
    let verdict_is v o = str_of o "verdict" = Some v in
    Buffer.add_string buf
      (Printf.sprintf
         "campaign report: %d trials — %d pass, %d violations, %d rejected, %d errors\n"
         (List.length verdict_lines)
         (tally (verdict_is "pass"))
         (tally (verdict_is "violation"))
         (tally (verdict_is "rejected"))
         (tally (verdict_is "error")));
    (match summary with
    | Some s ->
      (match int_of s "cache_hits", int_of s "cache_misses" with
      | Some h, Some m ->
        Buffer.add_string buf
          (Printf.sprintf "plan cache: %d hits / %d misses (%d configs planned once)\n" h m m)
      | _ -> ());
      (match str_of s "fingerprint" with
      | Some fp -> Buffer.add_string buf (Printf.sprintf "fingerprint: %s\n" fp)
      | None -> ())
    | None -> ());
    Buffer.add_char buf '\n';
    (* Per-configuration aggregation, first-seen (= grid) order. *)
    let key_of o =
      Printf.sprintf "%s/%s n=%s f=%s R=%sus bw=%s %s share=%s"
        (Option.value ~default:"?" (str_of o "workload"))
        (Option.value ~default:"?" (str_of o "topology"))
        (match int_of o "nodes" with Some i -> string_of_int i | None -> "?")
        (match int_of o "f" with Some i -> string_of_int i | None -> "?")
        (match int_of o "r_us" with Some i -> string_of_int i | None -> "?")
        (match int_of o "bandwidth_bps" with Some i -> string_of_int i | None -> "?")
        (Option.value ~default:"?" (str_of o "protect"))
        (Option.value ~default:"?" (str_of o "control_share"))
    in
    let groups =
      List.fold_left
        (fun acc o ->
          let k = key_of o in
          if List.mem_assoc k acc then
            List.map (fun (k', os) -> if k' = k then (k', o :: os) else (k', os)) acc
          else acc @ [ (k, [ o ]) ])
        [] verdict_lines
    in
    let table =
      Table.create ~title:"per configuration"
        ~header:[ "configuration"; "trials"; "viol"; "rej"; "worst recovery"; "max incorrect" ]
    in
    List.iter
      (fun (k, os) ->
        let os = List.rev os in
        let n_tr = List.length os in
        let viol = List.length (List.filter (verdict_is "violation") os) in
        let rej = List.length (List.filter (verdict_is "rejected") os) in
        let maxi key =
          List.fold_left
            (fun a o -> match int_of o key with Some v -> Stdlib.max a v | None -> a)
            0 os
        in
        Table.add_row table
          [
            k;
            string_of_int n_tr;
            string_of_int viol;
            string_of_int rej;
            Time.to_string (maxi "worst_recovery_us");
            Time.to_string (maxi "incorrect_us");
          ])
      groups;
    Buffer.add_string buf (Table.render table);
    Buffer.add_char buf '\n';
    List.iter
      (fun o ->
        match int_of o "violation", str_of o "script" with
        | Some idx, Some script ->
          Buffer.add_string buf
            (Printf.sprintf
               "violation (trial %d): %s\n  events %s (from %s), shrink runs %s, worst recovery %s vs R %s\n"
               idx script
               (match int_of o "events" with Some i -> string_of_int i | None -> "?")
               (match int_of o "events_before" with Some i -> string_of_int i | None -> "?")
               (match int_of o "shrink_runs" with Some i -> string_of_int i | None -> "?")
               (match int_of o "worst_recovery_us" with
               | Some i -> Time.to_string i
               | None -> "?")
               (match int_of o "r_us" with Some i -> Time.to_string i | None -> "?"))
        | _ -> ())
      violation_lines;
    Ok (Buffer.contents buf)
