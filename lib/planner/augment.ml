open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph

type role =
  | Original
  | Replica of { orig : Task.id; lane : int }
  | Checker of { orig : Task.id }
  | Guard of { node : int }

type input_group = { orig_flow : int; lane_flows : Graph.flow array }

(* One id-indexed index, built once by [augment]: every accessor below
   is an array read. *)
type index = {
  roles : role option Idtab.t;  (* augmented task id -> role *)
  lanes : Task.id list Idtab.t;
      (* original id -> lane ids in lane order; [] when unreplicated *)
  checker : Task.id option Idtab.t;  (* original id -> its checker *)
  flow_origin : (int * int) option Idtab.t;
      (* augmented data flow id -> (original flow id, lane) *)
  inputs : input_group array Idtab.t;
      (* augmented task id -> its data inputs, grouped by original flow *)
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
let inputs_of t id = Idtab.get t.index.inputs id

let digest_flow_ids t =
  List.filter_map
    (fun (f : Graph.flow) ->
      match role_of t f.consumer with
      | Checker _ -> Some f.flow_id
      | Original | Replica _ | Guard _ -> None)
    (Graph.flows t.graph)

(* Shared by every unreplicated task's index entry. *)
let some_original = Some Original

let build_index ~tasks ~roles ~flows ~flow_origin ~inputs =
  let roles_tbl = Idtab.of_ids (List.map (fun (x : Task.t) -> x.Task.id) tasks) None in
  let index =
    {
      roles = roles_tbl;
      lanes = Idtab.like roles_tbl [];
      checker = Idtab.like roles_tbl None;
      flow_origin = Idtab.of_ids (List.map (fun (f : Graph.flow) -> f.flow_id) flows) None;
      inputs;
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

(* Fixed costs of the added tasks: a checker's WCET is one replay of
   the checked task plus [checker_overhead], a guard reserves
   [guard_wcet] per node, and each lane sends its checker a
   [digest_size]-byte digest. *)
let checker_overhead = Time.us 100
let guard_wcet = Time.us 200
let digest_size = 32

let augment g ~nodes ~degree ~protect_level =
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
  (* Original id -> augmented id per lane; unprotected tasks map every
     lane to themselves. *)
  let lane_id = Idtab.of_ids (List.map (fun (x : Task.t) -> x.id) (Graph.tasks g)) [||] in
  let roles = ref [] in
  let tasks = ref [] in
  let add_task x role =
    tasks := x :: !tasks;
    roles := (x.Task.id, role) :: !roles
  in
  List.iter
    (fun (x : Task.t) ->
      if protect x then begin
        let ids = Array.make degree x.id in
        for lane = 0 to degree - 1 do
          let id = if lane = 0 then x.id else fresh_task () in
          let name = Printf.sprintf "%s#%d" x.name lane in
          add_task { x with Task.id; name } (Replica { orig = x.id; lane });
          ids.(lane) <- id
        done;
        Idtab.set lane_id x.id ids
      end
      else begin
        add_task x Original;
        Idtab.set lane_id x.id (Array.make degree x.id)
      end)
    (Graph.tasks g);
  (* Flows: lane-wise wiring. A flow between two tasks becomes one flow
     per lane between the corresponding lane instances; where an
     endpoint is unreplicated all lanes share it, and duplicate edges
     (unreplicated -> unreplicated) collapse back to one flow. Sinks
     thus receive every lane's copy and can fall back to a backup lane
     within the same period. Duplicates only arise within one flow, so
     each flow keeps its own list of the (at most [degree]) endpoint
     pairs it has wired. *)
  let flows = ref [] in
  let flow_origin = ref [] in
  (* Each consumer's input groups, newest first: the lane flows of one
     original flow into it. An unreplicated consumer (every lane maps
     to it) gets every lane's flow in one group, a lane its own. *)
  let groups = Idtab.of_ids (List.map (fun (x : Task.t) -> x.id) !tasks) [] in
  let add_group c lane_flows =
    Idtab.set groups c (lane_flows :: Idtab.get groups c)
  in
  List.iter
    (fun (f : Graph.flow) ->
      let producers = Idtab.get lane_id f.producer
      and consumers = Idtab.get lane_id f.consumer in
      let seen_pairs = ref [] in
      let made = ref [] in
      for lane = 0 to degree - 1 do
        let p = producers.(lane) in
        (* Sinks are unreplicated, so every lane's copy converges on
           the one sink task; other consumers stay lane-local. *)
        let c = consumers.(lane) in
        if not (List.exists (fun (p', c') -> p' = p && c' = c) !seen_pairs) then begin
          seen_pairs := (p, c) :: !seen_pairs;
          let flow_id = if lane = 0 then f.flow_id else fresh_flow () in
          let fl = { f with Graph.flow_id; producer = p; consumer = c } in
          flows := fl :: !flows;
          made := fl :: !made;
          flow_origin := (flow_id, (f.flow_id, lane)) :: !flow_origin
        end
      done;
      if consumers.(0) = consumers.(degree - 1) then
        add_group consumers.(0)
          { orig_flow = f.flow_id; lane_flows = Array.of_list (List.rev !made) }
      else
        List.iter
          (fun (fl : Graph.flow) ->
            add_group fl.consumer { orig_flow = f.flow_id; lane_flows = [| fl |] })
          !made)
    (Graph.flows g);
  let inputs = Idtab.like groups [||] in
  List.iter
    (fun (x : Task.t) ->
      match Idtab.get groups x.id with
      | [] -> ()
      | l ->
        let sorted = Array.of_list l in
        Array.sort (fun g g' -> Int.compare g.orig_flow g'.orig_flow) sorted;
        Idtab.set inputs x.id sorted)
    !tasks;
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
        let lanes = Idtab.get lane_id x.id in
        for lane = 0 to degree - 1 do
          let p = lanes.(lane) in
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
    index = build_index ~tasks ~roles:!roles ~flows ~flow_origin:!flow_origin ~inputs;
  }
