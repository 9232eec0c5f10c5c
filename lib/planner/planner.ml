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

(* Greedy placement of the augmented graph onto the alive nodes, in
   topological order: each task goes to the cheapest candidate. The
   result only feeds {!Schedule.list_schedule}, whose table is the
   plan's record of placement. *)
let place_tasks cfg aug ~alive ~parent ~xfer =
  let g = aug.Augment.graph in
  let place = Idtab.of_ids (List.map (fun (x : Task.t) -> x.id) (Graph.tasks g)) None in
  (* Every candidate and every admissible pin is alive. *)
  let busy = Inttbl.create 16 in
  List.iter (fun n -> Inttbl.replace busy n Time.zero) alive;
  let on_node n l = match Idtab.get place l with Some m -> m = n | None -> false in
  (* Locality cost: transfer time from every already-placed producer. *)
  let locality_cost producers n =
    List.fold_left
      (fun acc (fl : Graph.flow) ->
        match Idtab.get place fl.producer with
        | None -> acc
        | Some pn ->
          if pn = n then acc
          else
            acc
            + Option.value ~default:1_000_000
                (xfer ~src:pn ~dst:n ~size_bytes:fl.msg_size))
      0 producers
  in
  (* Everything about a task that does not depend on the candidate node:
     its lane group and separation rule, its parent-mode node, and its
     producers. *)
  let cost_for tid =
    let separation =
      match Augment.role_of aug tid with
      | Augment.Replica { orig; _ } ->
        (* Hard: two lanes of one task must not share a node. *)
        Some (`Forbidden, Augment.replicas_of aug orig)
      | Augment.Checker { orig } ->
        (* Soft but heavy: the checker should not sit with a lane it
           checks, or a faulty node could silence its own accuser. *)
        Some (`Heavy, Augment.replicas_of aug orig)
      | Augment.Original | Augment.Guard _ -> None
    in
    let parent_node =
      match parent with
      | Some p when cfg.reassignment = Minimal -> Schedule.node_of p.schedule tid
      | _ -> None
    in
    let producers = Graph.producers_of g tid in
    fun n ->
      let pen =
        match separation with
        | Some (kind, lanes) when List.exists (on_node n) lanes -> Some kind
        | _ -> None
      in
      match pen with
      | Some `Forbidden -> None
      | pen ->
        Some
          (locality_cost producers n
          + (Inttbl.find busy n / 2)
          + (match parent_node with Some p when p = n -> -50_000 | _ -> 0)
          + (match pen with Some `Heavy -> 500_000 | _ -> 0))
  in
  let exception Stuck of Task.id in
  try
    List.iter
      (fun tid ->
        let task = Graph.task g tid in
        let node =
          match task.Task.pinned with
          | Some n -> if List.mem n alive then n else raise (Stuck tid)
          | None ->
            let cost = cost_for tid in
            let best =
              List.fold_left
                (fun best n ->
                  match cost n with
                  | None -> best
                  | Some c -> (
                    match best with
                    | Some (_, bc) when bc <= c -> best
                    | _ -> Some (n, c)))
                None alive
            in
            (match best with Some (n, _) -> n | None -> raise (Stuck tid))
        in
        Idtab.set place tid (Some node);
        Inttbl.replace busy node (Time.add (Inttbl.find busy node) task.Task.wcet))
      (Graph.topo_order g);
    Ok place
  with Stuck tid -> Error (Printf.sprintf "no feasible node for task %d" tid)

(* The workload's sink flows that its restriction [kept] does not
   carry, in workload order. [kept]'s sink flows are an ordered
   subsequence of the workload's, so one walk finds the rest. *)
let dropped_sinks workload kept =
  let rec go (all : Graph.flow list) (carried : Graph.flow list) =
    match all, carried with
    | [], _ -> []
    | f :: all', c :: carried' when f.flow_id = c.flow_id -> go all' carried'
    | f :: all', _ -> f.flow_id :: go all' carried
  in
  go (Graph.sink_flows workload) (Graph.sink_flows kept)

(* One mode: shed criticality levels from the bottom until schedulable.
   [data] is the mode's data-class transfer time. *)
let plan_mode cfg workload topo ~faulty ~parent ~data =
  let alive =
    List.filter (fun n -> not (List.mem n faulty)) (Topology.nodes topo)
  in
  let lost_tasks =
    List.filter_map
      (fun (x : Task.t) ->
        match x.pinned with
        | Some n when List.mem n faulty -> Some x.id
        | _ -> None)
      (Graph.tasks workload)
  in
  let attempt floor =
    let keep (x : Task.t) =
      Task.compare_criticality x.criticality floor >= 0
      && not (List.mem x.id lost_tasks)
    in
    let kept = Graph.restrict workload ~keep in
    let aug =
      Augment.augment kept ~nodes:alive ~degree:cfg.degree
        ~protect_level:cfg.protect_level
    in
    match place_tasks cfg aug ~alive ~parent ~xfer:data with
    | Error reason -> Error reason
    | Ok place ->
      let place tid = Option.get (Idtab.get place tid) in
      (match Schedule.list_schedule aug.Augment.graph ~place ~xfer:data with
      | Ok schedule ->
        Ok
          {
            faulty;
            aug;
            schedule;
            shed_below = (if floor = Task.Best_effort then None else Some floor);
            lost_tasks;
            dropped = dropped_sinks workload kept;
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

(* Bounded evidence-distribution latency in the new mode: worst-case
   pairwise control-class transfer among surviving nodes. One
   cost-accumulating BFS per source replaces the per-pair route+fold —
   same routes, same per-pair sums, same max — taking the bound from
   O(n³) to O(n·memberships) per fault set. *)
let evidence_bound cfg topo ~faulty =
  let shares = Net.shares_for topo cfg.shares in
  let alive =
    List.filter (fun n -> not (List.mem n faulty)) (Topology.nodes topo)
  in
  let usable n = not (List.mem n faulty) in
  let link_cost =
    Net.link_transfer_time shares ~cls:Net.Control ~size_bytes:evidence_size
  in
  List.fold_left
    (fun acc a ->
      let costs = Topology.cost_from topo ~usable ~src:a ~link_cost in
      List.fold_left
        (fun acc b ->
          if a = b then acc
          else
            match Topology.cost_to costs b with
            | Some d -> Time.max acc d
            | None -> acc)
        acc alive)
    Time.zero alive

(* [from_plan]'s order is the order state sends leave a node, so it
   shows in traces. State migrates only from a surviving host; a faulty
   node's state is lost and the task restarts fresh. *)
let moves ~from_plan ~to_plan =
  let g = to_plan.aug.Augment.graph in
  List.filter_map
    (fun (task, from_node) ->
      match Schedule.node_of to_plan.schedule task with
      | Some to_node when to_node <> from_node ->
        Some
          {
            task;
            from_node;
            to_node;
            state_size = (Graph.task g task).Task.state_size;
            migrates = not (List.mem from_node to_plan.faulty);
          }
      | _ -> None)
    (assignments from_plan)

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
                match
                  control ~src:m.from_node ~dst:m.to_node
                    ~size_bytes:(Stdlib.max 1 m.state_size)
                with
                | Some d -> Time.add acc d
                | None -> acc)
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
         (Printf.sprintf "degree %d > surviving nodes %d: lanes cannot be separated"
            cfg.degree (n - cfg.f)))
  else begin
    (* btr-lint: allow wall-clock — planning_seconds is wall-clock
       telemetry about the planner itself; it never enters a trace. *)
    let started_at = Sys.time () in
    let plans = Hashtbl.create 64 in
    let transitions = Hashtbl.create 64 in
    let evb =
      match supplied with
      | Some evb -> evb
      | None -> fun faulty -> evidence_bound cfg topo ~faulty
    in
    let shares = Net.shares_for topo cfg.shares in
    let exception Failed of error in
    try
      List.iter
        (fun faulty ->
          if not (Topology.connected_without topo faulty) then
            raise (Failed (Disconnected { faulty }));
          (* The mode's route table: placement, list scheduling and the
             migration bounds read every route from it. *)
          let routes = Topology.router topo ~usable:(fun n -> not (List.mem n faulty)) in
          let parent =
            match List.rev faulty with
            | [] -> None
            | _ :: rest_rev -> Hashtbl.find_opt plans (key (List.rev rest_rev))
          in
          let plan =
            match
              plan_mode cfg workload topo ~faulty ~parent
                ~data:(Net.route_transfer_time routes shares ~cls:Net.Data)
            with
            | Error e -> raise (Failed e)
            | Ok plan -> plan
          in
          Hashtbl.replace plans (key faulty) plan;
          (* A transition into this mode exists from every parent; all
             of them share the mode's evidence bound. *)
          if faulty <> [] then begin
            let evidence = evb faulty in
            List.iter
              (fun y ->
                let from_faulty = List.filter (fun x -> x <> y) faulty in
                match Hashtbl.find_opt plans (key from_faulty) with
                | None -> ()
                | Some from_plan ->
                  Hashtbl.replace transitions (key from_faulty, y)
                    (make_transition ~evidence
                       ~control:(Net.route_transfer_time routes shares ~cls:Net.Control)
                       ~from_plan ~to_plan:plan ~new_fault:y))
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

let config t = t.config
let workload t = t.workload
let topology t = t.topology
let stats t = t.stats
let plan_for t ~faulty = Hashtbl.find_opt t.plans (key faulty)

let initial_plan t =
  match plan_for t ~faulty:[] with
  | Some p -> p
  | None -> invalid_arg "Planner.initial_plan: strategy has no fault-free plan"

let transition_for t ~from_faulty ~new_fault =
  Hashtbl.find_opt t.transitions (key from_faulty, new_fault)

(* Sorted by mode key, so callers see plans and transitions in a
   stable order regardless of planning insertion history. *)
let all_plans t =
  List.rev (Table.sorted_fold ~cmp:String.compare (fun _ p acc -> p :: acc) t.plans [])

let all_transitions t =
  List.rev
    (Table.sorted_fold ~cmp:cmp_transition_key (fun _ tr acc -> tr :: acc)
       t.transitions [])
