open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph

type role =
  | Original
  | Replica of { orig : Task.id; lane : int }
  | Checker of { orig : Task.id }
  | Guard of { node : int }

(* One id-indexed index, built once by [augment]: every accessor below
   is an array read. *)
type index = {
  roles : role option Idtab.t;  (* augmented task id -> role *)
  lanes : Task.id list Idtab.t;
      (* original id -> lane ids in lane order; [] when unreplicated *)
  checker : Task.id option Idtab.t;  (* original id -> its checker *)
  flow_origin : (int * int) option Idtab.t;
      (* augmented data flow id -> (original flow id, lane) *)
}

type t = { graph : Graph.t; original : Graph.t; degree : int; index : index }

let role_of t id =
  match Idtab.get t.index.roles id with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Augment.role_of: unknown task %d" id)

let orig_of t id =
  match role_of t id with
  | Original -> id
  | Replica { orig; _ } | Checker { orig } -> orig
  | Guard _ -> id

let lane_of t id =
  match role_of t id with Replica { lane; _ } -> lane | Original | Checker _ | Guard _ -> 0

let replicas_of t orig =
  match Idtab.get t.index.lanes orig with [] -> [ orig ] | lanes -> lanes

let checker_of t orig = Idtab.get t.index.checker orig

let checkers t =
  List.filter_map
    (fun (x : Task.t) ->
      match role_of t x.id with
      | Checker _ -> Some x.id
      | Original | Replica _ | Guard _ -> None)
    (Graph.tasks t.graph)

let guards t =
  List.filter_map
    (fun (x : Task.t) ->
      match role_of t x.id with
      | Guard { node } -> Some (x.id, node)
      | Original | Replica _ | Checker _ -> None)
    (Graph.tasks t.graph)

let is_protected t orig =
  match replicas_of t orig with [ single ] -> single <> orig | _ -> true

let orig_flow_of t fid = Idtab.get t.index.flow_origin fid

let digest_flow_ids t =
  List.filter_map
    (fun (f : Graph.flow) ->
      match role_of t f.consumer with
      | Checker _ -> Some f.flow_id
      | Original | Replica _ | Guard _ -> None)
    (Graph.flows t.graph)

(* Shared by every unreplicated task's index entry. *)
let some_original = Some Original

let build_index ~tasks ~roles ~flows ~flow_origin =
  let task_ids = List.map (fun (x : Task.t) -> x.Task.id) tasks in
  let index =
    {
      roles = Idtab.of_ids task_ids None;
      lanes = Idtab.of_ids task_ids [];
      checker = Idtab.of_ids task_ids None;
      flow_origin = Idtab.of_ids (List.map (fun (f : Graph.flow) -> f.flow_id) flows) None;
    }
  in
  (* [roles] is newest first, so consing lanes yields lane order. *)
  List.iter
    (fun (id, role) ->
      Idtab.set index.roles id
        (match role with
        | Original -> some_original
        | Replica _ | Checker _ | Guard _ -> Some role);
      match role with
      | Replica { orig; _ } -> Idtab.set index.lanes orig (id :: Idtab.get index.lanes orig)
      | Checker { orig } -> Idtab.set index.checker orig (Some id)
      | Original | Guard _ -> ())
    roles;
  List.iter (fun (fid, origin) -> Idtab.set index.flow_origin fid (Some origin)) flow_origin;
  index

let augment g ~nodes ~degree ~protect_level ~checker_overhead ~guard_wcet
    ~digest_size =
  if degree < 1 then invalid_arg "Augment.augment: degree < 1";
  let next_task = ref (1 + List.fold_left (fun m (x : Task.t) -> Stdlib.max m x.id) 0 (Graph.tasks g)) in
  let next_flow =
    ref (1 + List.fold_left (fun m (f : Graph.flow) -> Stdlib.max m f.flow_id) 0 (Graph.flows g))
  in
  let fresh_task () =
    let id = !next_task in
    incr next_task;
    id
  in
  let fresh_flow () =
    let id = !next_flow in
    incr next_flow;
    id
  in
  let protect (x : Task.t) =
    x.kind = Task.Compute
    && Task.compare_criticality x.criticality protect_level >= 0
  in
  (* lane_ids.(orig) = augmented id per lane; unprotected map to self. *)
  let lane_id : (Task.id * int, Task.id) Hashtbl.t = Hashtbl.create 64 in
  let roles = ref [] in
  let tasks = ref [] in
  let add_task x role =
    tasks := x :: !tasks;
    roles := (x.Task.id, role) :: !roles
  in
  List.iter
    (fun (x : Task.t) ->
      if protect x then
        for lane = 0 to degree - 1 do
          let id = if lane = 0 then x.id else fresh_task () in
          let name = Printf.sprintf "%s#%d" x.name lane in
          add_task { x with Task.id; name } (Replica { orig = x.id; lane });
          Hashtbl.replace lane_id (x.id, lane) id
        done
      else begin
        add_task x Original;
        for lane = 0 to degree - 1 do
          Hashtbl.replace lane_id (x.id, lane) x.id
        done
      end)
    (Graph.tasks g);
  (* Flows: lane-wise wiring. A flow between two tasks becomes one flow
     per lane between the corresponding lane instances; where an
     endpoint is unreplicated all lanes share it, and duplicate edges
     (unreplicated -> unreplicated) collapse back to one flow. Sinks
     thus receive every lane's copy and can fall back to a backup lane
     within the same period. *)
  let flows = ref [] in
  let flow_origin = ref [] in
  let seen_pairs = Hashtbl.create 64 in
  List.iter
    (fun (f : Graph.flow) ->
      List.iter
        (fun lane ->
          let p = Hashtbl.find lane_id (f.producer, lane) in
          (* Sinks are unreplicated, so every lane's copy converges on
             the one sink task; other consumers stay lane-local. *)
          let c = Hashtbl.find lane_id (f.consumer, lane) in
          if not (Hashtbl.mem seen_pairs (p, c, f.flow_id)) then begin
            Hashtbl.replace seen_pairs (p, c, f.flow_id) ();
            let flow_id = if lane = 0 then f.flow_id else fresh_flow () in
            flows := { f with Graph.flow_id; producer = p; consumer = c } :: !flows;
            flow_origin := (flow_id, (f.flow_id, lane)) :: !flow_origin
          end)
        (List.init degree Fun.id))
    (Graph.flows g);
  (* Checkers: one per protected task, fed a digest from every lane. *)
  List.iter
    (fun (x : Task.t) ->
      if protect x then begin
        let cid = fresh_task () in
        add_task
          (Task.make ~id:cid
             ~name:(Printf.sprintf "check:%s" x.name)
             ~wcet:(Time.add x.wcet checker_overhead) ~criticality:x.criticality
             ())
          (Checker { orig = x.id });
        for lane = 0 to degree - 1 do
          let p = Hashtbl.find lane_id (x.id, lane) in
          flows :=
            {
              Graph.flow_id = fresh_flow ();
              producer = p;
              consumer = cid;
              msg_size = digest_size;
              deadline = None;
            }
            :: !flows
        done
      end)
    (Graph.tasks g);
  (* Guards: per-node evidence-verification CPU reserve, pinned. *)
  List.iter
    (fun node ->
      let gid = fresh_task () in
      add_task
        (Task.make ~id:gid
           ~name:(Printf.sprintf "guard:n%d" node)
           ~wcet:guard_wcet ~criticality:Task.Safety_critical ~pinned:node ())
        (Guard { node }))
    nodes;
  let tasks = List.rev !tasks and flows = List.rev !flows in
  let graph = Graph.create_relaxed ~period:(Graph.period g) ~tasks ~flows in
  {
    graph;
    original = g;
    degree;
    index = build_index ~tasks ~roles:!roles ~flows ~flow_origin:!flow_origin;
  }
