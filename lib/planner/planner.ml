open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Schedule = Btr_sched.Schedule
module Topology = Btr_net.Topology
module Net = Btr_net.Net

type reassignment = Minimal | Naive

type config = {
  f : int;
  recovery_bound : Time.t;
  protect_level : Task.criticality;
  degree : int;
  reassignment : reassignment;
  shares : Net.shares option;
}

let default_config ~f ~recovery_bound =
  {
    f;
    recovery_bound;
    protect_level = Task.Medium;
    degree = f + 1;
    reassignment = Minimal;
    shares = None;
  }

let evidence_size = 160
let detection_margin = Time.ms 1

(* A tenth of a period on top of [detection_margin] absorbs per-link
   queueing that the schedule's queueing-free transfer estimates do not
   model, so correct-but-contended messages are never declared late. *)
let watchdog_margin ~period = Time.add detection_margin (Time.div period 10)

let protected_sink_flows cfg workload =
  List.filter
    (fun (fl : Graph.flow) ->
      let producer = Graph.task workload fl.producer in
      Task.compare_criticality producer.Task.criticality cfg.protect_level >= 0)
    (Graph.sink_flows workload)

(* A total, deterministic serialization of a *resolved* config. Two
   configs with equal fields get equal keys even when they were produced
   by different [tune] closures, so caches of built strategies (the
   campaign plan cache) can key on this instead of physical equality. *)
let config_key c =
  let crit l = Format.asprintf "%a" Task.pp_criticality l in
  let shares =
    match c.shares with
    | None -> "default"
    | Some s -> Printf.sprintf "%.6f/%.6f" s.Net.data_frac s.Net.control_frac
  in
  Printf.sprintf "f=%d;R=%d;protect=%s;degree=%d;reassign=%s;shares=%s" c.f
    c.recovery_bound (crit c.protect_level) c.degree
    (match c.reassignment with Minimal -> "minimal" | Naive -> "naive")
    shares

(* The requested R is the one config field planning never reads: only
   the verifier's budget checks use it, while plans, schedules and
   transitions are computed without it. Keying strategy
   caches on the R-stripped serialization is what lets an R-only edit
   (or a campaign R-grid neighbor) reuse the whole strategy. *)
let config_build_key c = config_key { c with recovery_bound = Time.zero }

let max_plan_size = 2_000_000

let plan_size ~nodes ~f ~tasks =
  let f = Stdlib.max 0 f in
  (* modes = Σ_{k ≤ f} C(nodes, k), C(n, k) = C(n, k - 1) · (n - k + 1) / k;
     the sum reaches infinity within about a thousand terms, so huge [f]
     stops early. *)
  let modes = ref 1.0 and c = ref 1.0 and k = ref 1 in
  while !k <= Stdlib.min f nodes && Float.is_finite !modes do
    c := !c *. float_of_int (nodes - !k + 1) /. float_of_int !k;
    modes := !modes +. !c;
    incr k
  done;
  !modes *. (float_of_int nodes +. ((float_of_int f +. 2.0) *. float_of_int tasks))

let check_plan_size ~nodes ~f ~tasks =
  let size = plan_size ~nodes ~f ~tasks in
  if size <= float_of_int max_plan_size then Ok ()
  else
    Error
      (Printf.sprintf
         "%d nodes at f = %d would plan about %.3g task placements, past the limit of %d"
         nodes f size max_plan_size)

type plan = {
  faulty : int list;
  aug : Augment.t;
  schedule : Schedule.t;
  shed_below : Task.criticality option;
  lost_tasks : Task.id list;
  dropped : int list;
}

let assignments plan =
  List.filter_map
    (fun (x : Task.t) ->
      match Schedule.node_of plan.schedule x.id with
      | Some n -> Some (x.id, n)
      | None -> None)
    (Graph.tasks plan.aug.Augment.graph)

(* Fault patterns hold at most f nodes: membership is a scan, with
   integer compare. *)
let rec mem_int (x : int) = function [] -> false | y :: rest -> x = y || mem_int x rest

let keeps ~floor ~lost_tasks (x : Task.t) =
  Task.compare_criticality x.criticality floor >= 0 && not (mem_int x.id lost_tasks)

type move = {
  task : Task.id;
  from_node : int;
  to_node : int;
  state_size : int;
  migrates : bool;
}

type transition = {
  from_faulty : int list;
  new_fault : int;
  to_faulty : int list;
  moved : move list;
  state_bytes : int;
  migration_bound : Time.t;
  recovery_bound : Time.t;
}

type stats = {
  modes : int;
  transitions : int;
  planning_seconds : float;
  worst_recovery : Time.t;
  total_moved_state : int;
}

type t = {
  config : config;
  workload : Graph.t;
  topology : Topology.t;
  plans : (string, plan) Hashtbl.t;
  transitions : (string * int, transition) Hashtbl.t;
  stats : stats;
}

type error =
  | Unschedulable of { faulty : int list; reason : string }
  | Disconnected of { faulty : int list }
  | Bad_config of string
  | Rejected of { diagnostics : (string * string) list }

let pp_fault_set ppf fs =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int fs))

let pp_error ppf = function
  | Unschedulable { faulty; reason } ->
    Format.fprintf ppf "mode %a unschedulable: %s" pp_fault_set faulty reason
  | Disconnected { faulty } ->
    Format.fprintf ppf "mode %a disconnects the surviving nodes" pp_fault_set faulty
  | Bad_config msg -> Format.fprintf ppf "bad config: %s" msg
  | Rejected { diagnostics } ->
    Format.fprintf ppf "strategy rejected by static verification:";
    List.iter
      (fun (code, msg) -> Format.fprintf ppf "@\n  [%s] %s" code msg)
      diagnostics

let key faulty = String.concat "," (List.map string_of_int (List.sort_uniq Int.compare faulty))

let cmp_transition_key (k1, y1) (k2, y2) =
  match String.compare k1 k2 with 0 -> Int.compare y1 y2 | c -> c

(* Every ≤ f sized subset of nodes, smallest first so parents precede
   children in Minimal mode. A negative [f] yields just the fault-free
   pattern. *)
let fault_patterns nodes f =
  let rec subsets k = function
    | _ when k = 0 -> [ [] ]
    | [] -> []
    | x :: rest -> List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest
  in
  List.concat_map (fun k -> List.map (List.sort Int.compare) (subsets k nodes))
    (List.init (Stdlib.max 0 f + 1) Fun.id)

(* {2 Placement}

   Greedy placement of the augmented graph onto the alive nodes, in
   topological order: each task goes to the cheapest candidate, the
   first in declared order on a tie. The result only feeds
   {!Schedule.list_schedule}, whose table is the plan's record of
   placement. [place] holds each placed task's node as its position in
   [ids], the topology's nodes in declared order ({!Topology.index}),
   and [busy] each position's placed WCET. Every helper takes
   what it reads as arguments, so a probe or a candidate allocates
   nothing. *)

let unplaced = -1

(* Is some task of [lanes] already at position [at]? *)
let rec lane_at place at = function
  | [] -> false
  | l :: rest -> Idtab.get place l = at || lane_at place at rest

(* Transfer time to [ids.(at)] from every already-placed producer. *)
let rec locality place ids (xfer : Schedule.xfer) at acc = function
  | [] -> acc
  | (fl : Graph.flow) :: rest ->
    let pat = Idtab.get place fl.producer in
    let acc =
      if pat = unplaced || pat = at then acc
      else
        let d = xfer ~src:ids.(pat) ~dst:ids.(at) ~size_bytes:fl.msg_size in
        acc + if d = Time.infinity then 1_000_000 else d
    in
    locality place ids xfer at acc rest

let place_tasks cfg aug ~topo ~ids ~faulty ~parent ~xfer =
  let g = aug.Augment.graph in
  let place = Graph.task_table g unplaced in
  let busy = Array.make (Array.length ids) Time.zero in
  let exception Stuck of Task.id in
  try
    List.iter
      (fun tid ->
        let task = Graph.task g tid in
        let at =
          match task.Task.pinned with
          | Some n ->
            let i = Topology.index topo n in
            if i >= 0 && not (mem_int n faulty) then i else raise (Stuck tid)
          | None ->
            (* Two lanes of one task must not share a node (hard); a
               checker should not sit with a lane it checks, or a faulty
               node could silence its own accuser (soft but heavy). *)
            let role = Augment.role_of aug tid in
            let lanes =
              match role with
              | Augment.Replica { orig; _ } | Augment.Checker { orig } ->
                Augment.replicas_of aug orig
              | Augment.Original | Augment.Guard _ -> []
            in
            let forbid = match role with Augment.Replica _ -> true | _ -> false in
            let parent_node =
              match parent with
              | Some p when cfg.reassignment = Minimal -> Schedule.node_of p.schedule tid
              | _ -> None
            in
            let producers = Graph.producers_of g tid in
            let best = ref unplaced and best_cost = ref 0 in
            for at = 0 to Array.length ids - 1 do
              if not (mem_int ids.(at) faulty) then begin
                let shared = lane_at place at lanes in
                if not (forbid && shared) then begin
                  let c =
                    locality place ids xfer at 0 producers
                    + (busy.(at) / 2)
                    + (match parent_node with Some p when p = ids.(at) -> -50_000 | _ -> 0)
                    + if shared then 500_000 else 0
                  in
                  if !best = unplaced || c < !best_cost then begin
                    best := at;
                    best_cost := c
                  end
                end
              end
            done;
            if !best = unplaced then raise (Stuck tid) else !best
        in
        Idtab.set place tid at;
        busy.(at) <- Time.add busy.(at) task.Task.wcet)
      (Graph.topo_order g);
    Ok place
  with Stuck tid -> Error ("no feasible node for task " ^ string_of_int tid)

(* The workload's sink flows that the tasks [keep] holds do not carry,
   in workload order. *)
let dropped_sinks workload ~keep =
  List.filter_map
    (fun (f : Graph.flow) ->
      if keep (Graph.task workload f.producer) && keep (Graph.task workload f.consumer) then None
      else Some f.flow_id)
    (Graph.sink_flows workload)

(* One mode: shed criticality levels from the bottom until schedulable.
   [data] is the mode's data-class transfer time. *)
let plan_mode cfg workload ~topo ~ids ~alive ~faulty ~parent ~data =
  let lost_tasks =
    List.filter_map
      (fun (x : Task.t) ->
        match x.pinned with
        | Some n when mem_int n faulty -> Some x.id
        | _ -> None)
      (Graph.tasks workload)
  in
  let attempt floor =
    let keep = keeps ~floor ~lost_tasks in
    let aug =
      Augment.augment workload ~keep ~nodes:alive ~degree:cfg.degree
        ~protect_level:cfg.protect_level
    in
    match place_tasks cfg aug ~topo ~ids ~faulty ~parent ~xfer:data with
    | Error reason -> Error reason
    | Ok place ->
      let place tid = ids.(Idtab.get place tid) in
      (match Schedule.list_schedule aug.Augment.graph ~place ~xfer:data with
      | Ok schedule ->
        Ok
          {
            faulty;
            aug;
            schedule;
            shed_below = (if floor = Task.Best_effort then None else Some floor);
            lost_tasks;
            dropped = dropped_sinks workload ~keep;
          }
      | Error failure ->
        Error (Format.asprintf "%a" Schedule.pp_failure failure))
  in
  let rec try_floors last_err = function
    | [] ->
      Error
        (Unschedulable
           { faulty; reason = Option.value ~default:"no tasks left" last_err })
    | floor :: rest -> (
      match attempt floor with
      | Ok plan -> Ok plan
      | Error reason -> try_floors (Some reason) rest)
  in
  try_floors None Task.all_criticalities

(* {2 The evidence bound}

   Bounded evidence-distribution latency in a mode: the worst-case
   control-class transfer of one evidence record between two survivors
   of the mode's fault pattern. The fault-free sweep of every source,
   with its f + 1 costliest destinations, is computed once per
   topology; a mode re-sweeps only the sources whose fault-free sweep
   one of its faulty nodes relays in ({!Topology.max_path_cost}). *)

type evidence = Topology.spread Lazy.t

let evidence cfg sweeps =
  lazy
    (let shares = Net.shares_for (Topology.sweeps_topology sweeps) cfg.shares in
     Topology.spread sweeps ~k:(Stdlib.max 0 cfg.f + 1)
       ~link_cost:(Net.link_transfer_time shares ~cls:Net.Control ~size_bytes:evidence_size))

let evidence_bound ev ~faulty = Topology.max_path_cost (Lazy.force ev) ~avoid:faulty

(* [from_plan]'s order is the order state sends leave a node, so it
   shows in traces. State migrates only from a surviving host; a faulty
   node's state is lost and the task restarts fresh. *)
let moves ~from_plan ~to_plan =
  let g = to_plan.aug.Augment.graph in
  List.filter_map
    (fun (x : Task.t) ->
      match Schedule.node_of from_plan.schedule x.id with
      | None -> None
      | Some from_node -> (
        match Schedule.node_of to_plan.schedule x.id with
        | Some to_node when to_node <> from_node ->
          Some
            {
              task = x.id;
              from_node;
              to_node;
              state_size = (Graph.task g x.id).Task.state_size;
              migrates = not (mem_int from_node to_plan.faulty);
            }
        | _ -> None))
    (Graph.tasks from_plan.aug.Augment.graph)

(* [control] is the control-class transfer time in the new mode,
   [evidence] its evidence-distribution bound. Transfers from one
   sender serialize on its control reservation, so the migration bound
   is the largest per-sender total. A stateless move is charged one
   byte, though no state is sent for it. *)
let make_transition ~evidence ~control ~from_plan ~to_plan ~new_fault =
  let moved = moves ~from_plan ~to_plan in
  let migrations = List.filter (fun m -> m.migrates) moved in
  let state_bytes = List.fold_left (fun acc m -> acc + m.state_size) 0 migrations in
  let senders = List.sort_uniq Int.compare (List.map (fun m -> m.from_node) migrations) in
  let migration_bound =
    List.fold_left
      (fun acc sender ->
        let total =
          List.fold_left
            (fun acc m ->
              if m.from_node <> sender then acc
              else
                let d =
                  control ~src:m.from_node ~dst:m.to_node ~size_bytes:(Stdlib.max 1 m.state_size)
                in
                if d = Time.infinity then acc else Time.add acc d)
            Time.zero migrations
        in
        Time.max acc total)
      Time.zero senders
  in
  let period = Graph.period to_plan.aug.Augment.graph in
  let recovery_bound =
    Time.add
      (Time.add (Time.add period detection_margin) evidence)
      (Time.add migration_bound period)
  in
  {
    from_faulty = from_plan.faulty;
    new_fault;
    to_faulty = to_plan.faulty;
    moved;
    state_bytes;
    migration_bound;
    recovery_bound;
  }

let build ?evidence_bound:supplied cfg workload topo =
  let n = Topology.node_count topo in
  if cfg.f < 0 then Error (Bad_config "f < 0")
  else if cfg.degree < 1 then Error (Bad_config "degree < 1")
  else if cfg.degree > n - cfg.f then
    Error
      (Bad_config
         ("degree " ^ string_of_int cfg.degree ^ " > surviving nodes "
         ^ string_of_int (n - cfg.f) ^ ": lanes cannot be separated"))
  else begin
    (* btr-lint: allow wall-clock — planning_seconds is wall-clock
       telemetry about the planner itself; it never enters a trace. *)
    let started_at = Sys.time () in
    let plans = Hashtbl.create 64 in
    let transitions = Hashtbl.create 64 in
    let shares = Net.shares_for topo cfg.shares in
    (* Every mode's route table reuses these fault-free sweeps wherever
       its faulty nodes relay in none of them. *)
    let sweeps = Topology.sweeps topo in
    let ev = evidence cfg sweeps in
    let ids = Array.of_list (Topology.nodes topo) in
    let exception Failed of error in
    try
      List.iter
        (fun faulty ->
          (* The mode's route table: placement, list scheduling, the
             migration bounds and the evidence bound read every route
             from it. *)
          let routes = Topology.router sweeps ~avoid:faulty in
          if not (Topology.connected routes) then raise (Failed (Disconnected { faulty }));
          let parent =
            match List.rev faulty with
            | [] -> None
            | _ :: rest_rev -> Hashtbl.find_opt plans (key (List.rev rest_rev))
          in
          let alive = List.filter (fun n -> not (mem_int n faulty)) (Topology.nodes topo) in
          let plan =
            match
              plan_mode cfg workload ~topo ~ids ~alive ~faulty ~parent
                ~data:(Net.transfer_time routes shares ~cls:Net.Data)
            with
            | Error e -> raise (Failed e)
            | Ok plan -> plan
          in
          Hashtbl.replace plans (key faulty) plan;
          (* A transition into this mode exists from every parent; all
             of them share the mode's evidence bound. *)
          if faulty <> [] then begin
            let evidence =
              match supplied with
              | Some evb -> evb ev faulty
              | None -> evidence_bound ev ~faulty
            in
            let control = Net.transfer_time routes shares ~cls:Net.Control in
            List.iter
              (fun y ->
                let from_faulty = List.filter (fun x -> x <> y) faulty in
                match Hashtbl.find_opt plans (key from_faulty) with
                | None -> ()
                | Some from_plan ->
                  Hashtbl.replace transitions (key from_faulty, y)
                    (make_transition ~evidence ~control ~from_plan ~to_plan:plan ~new_fault:y))
              faulty
          end)
        (fault_patterns (Topology.nodes topo) cfg.f);
      let worst_recovery =
        Table.sorted_fold ~cmp:cmp_transition_key
          (fun _ tr acc -> Time.max acc tr.recovery_bound)
          transitions Time.zero
      in
      let total_moved_state =
        Table.sorted_fold ~cmp:cmp_transition_key
          (fun _ tr acc -> acc + tr.state_bytes)
          transitions 0
      in
      Ok
        {
          config = cfg;
          workload;
          topology = topo;
          plans;
          transitions;
          stats =
            {
              modes = Hashtbl.length plans;
              transitions = Hashtbl.length transitions;
              (* btr-lint: allow wall-clock — planner self-telemetry *)
              planning_seconds = Sys.time () -. started_at;
              worst_recovery;
              total_moved_state;
            };
        }
    with Failed e -> Error e
  end

let with_recovery_bound t r =
  { t with config = { t.config with recovery_bound = r } }

let kept t plan =
  let floor = Option.value ~default:Task.Best_effort plan.shed_below in
  List.filter (keeps ~floor ~lost_tasks:plan.lost_tasks) (Graph.tasks t.workload)

let config t = t.config
let workload t = t.workload
let topology t = t.topology
let stats t = t.stats
let plan_for t ~faulty = Hashtbl.find_opt t.plans (key faulty)

let initial_plan t =
  match plan_for t ~faulty:[] with
  | Some p -> p
  | None -> invalid_arg "Planner.initial_plan: strategy has no fault-free plan"

(* Sorted by mode key, so callers see plans and transitions in a
   stable order regardless of planning insertion history. *)
let all_plans t =
  List.rev (Table.sorted_fold ~cmp:String.compare (fun _ p acc -> p :: acc) t.plans [])

let all_transitions t =
  List.rev
    (Table.sorted_fold ~cmp:cmp_transition_key (fun _ tr acc -> tr :: acc)
       t.transitions [])
