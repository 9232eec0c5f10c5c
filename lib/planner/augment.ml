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

type t = { graph : Graph.t; degree : int; index : index }

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

(* Fixed costs of the added tasks: a checker's WCET is one replay of
   the checked task plus [checker_overhead], a guard reserves
   [guard_wcet] per node, and each lane sends its checker a
   [digest_size]-byte digest. *)
let checker_overhead = Time.us 100
let guard_wcet = Time.us 200
let digest_size = 32

(* [lane_id] maps a replicated original to its lane ids; an
   unreplicated task is every lane of itself. *)
let no_lanes : Task.id array = [||]

let lane_task lane_id id lane =
  let ids = Idtab.get lane_id id in
  if Array.length ids = 0 then id else ids.(lane)

let augment workload ~keep ~nodes ~degree ~protect_level =
  if degree < 1 then invalid_arg "Augment.augment: degree < 1";
  let protect (x : Task.t) =
    x.kind = Task.Compute && Task.compare_criticality x.criticality protect_level >= 0
  in
  (* First pass: which tasks and flows are kept, and how many ids the
     augmentation adds above the largest kept ones, so every index
     table is sized once and filled in place. *)
  let kept = Graph.task_table workload false in
  let protected = ref 0 and lo_task = ref max_int and hi_task = ref 0 in
  List.iter
    (fun (x : Task.t) ->
      if keep x then begin
        Idtab.set kept x.id true;
        if protect x then incr protected;
        lo_task := Stdlib.min !lo_task x.id;
        hi_task := Stdlib.max !hi_task x.id
      end)
    (Graph.tasks workload);
  let kept_flow (f : Graph.flow) = Idtab.get kept f.producer && Idtab.get kept f.consumer in
  let wired (f : Graph.flow) =
    protect (Graph.task workload f.producer) || protect (Graph.task workload f.consumer)
  in
  let lo_flow = ref max_int and hi_flow = ref 0 and lane_flows = ref 0 in
  List.iter
    (fun (f : Graph.flow) ->
      if kept_flow f then begin
        lo_flow := Stdlib.min !lo_flow f.flow_id;
        hi_flow := Stdlib.max !hi_flow f.flow_id;
        if wired f then lane_flows := !lane_flows + degree - 1
      end)
    (Graph.flows workload);
  let next_task = ref (1 + !hi_task) and next_flow = ref (1 + !hi_flow) in
  let last_task = !hi_task + (!protected * degree) + List.length nodes in
  let last_flow = !hi_flow + !lane_flows + (!protected * degree) in
  let roles = Idtab.span ~lo:(Stdlib.min !lo_task !next_task) ~hi:last_task None in
  let index =
    {
      roles;
      lanes = Idtab.like roles [];
      checker = Idtab.like roles None;
      flow_origin = Idtab.span ~lo:(Stdlib.min !lo_flow !next_flow) ~hi:last_flow None;
      inputs = Idtab.like roles [||];
    }
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
  let suffix = Array.init degree (fun lane -> "#" ^ string_of_int lane) in
  let lane_id = Graph.task_table workload no_lanes in
  let tasks = ref [] in
  let add_task (x : Task.t) role =
    tasks := x :: !tasks;
    Idtab.set index.roles x.id role
  in
  List.iter
    (fun (x : Task.t) ->
      if Idtab.get kept x.id then
        if protect x then begin
          let ids = Array.make degree x.id in
          for lane = 0 to degree - 1 do
            let id = if lane = 0 then x.id else fresh_task () in
            add_task { x with Task.id; name = x.name ^ suffix.(lane) }
              (Some (Replica { orig = x.id; lane }));
            ids.(lane) <- id
          done;
          Idtab.set lane_id x.id ids;
          Idtab.set index.lanes x.id (Array.to_list ids)
        end
        else add_task x some_original)
    (Graph.tasks workload);
  (* Flows: lane-wise wiring. A flow between two tasks becomes one flow
     per lane between the corresponding lane instances; where an
     endpoint is unreplicated all lanes share it, and a flow between
     two unreplicated tasks stays one flow. Sinks thus receive every
     lane's copy and can fall back to a backup lane within the same
     period. *)
  let flows = ref [] in
  (* Each consumer's input groups, newest first: the lane flows of one
     original flow into it. An unreplicated consumer (every lane maps
     to it) gets every lane's flow in one group, a lane its own. *)
  let groups = Idtab.like roles [] in
  let add_group c group = Idtab.set groups c (group :: Idtab.get groups c) in
  List.iter
    (fun (f : Graph.flow) ->
      if kept_flow f then begin
        let lanes = if wired f then degree else 1 in
        let made = Array.make lanes f in
        for lane = 0 to lanes - 1 do
          let flow_id = if lane = 0 then f.flow_id else fresh_flow () in
          let fl =
            {
              f with
              Graph.flow_id;
              producer = lane_task lane_id f.producer lane;
              consumer = lane_task lane_id f.consumer lane;
            }
          in
          flows := fl :: !flows;
          made.(lane) <- fl;
          Idtab.set index.flow_origin flow_id (Some (f.flow_id, lane))
        done;
        if Array.length (Idtab.get lane_id f.consumer) = 0 then
          add_group f.consumer { orig_flow = f.flow_id; lane_flows = made }
        else
          Array.iter
            (fun (fl : Graph.flow) ->
              add_group fl.consumer { orig_flow = f.flow_id; lane_flows = [| fl |] })
            made
      end)
    (Graph.flows workload);
  (* Checkers: one per protected task, fed a digest from every lane. *)
  List.iter
    (fun (x : Task.t) ->
      if Idtab.get kept x.id && protect x then begin
        let cid = fresh_task () in
        add_task
          (Task.make ~id:cid ~name:("check:" ^ x.name)
             ~wcet:(Time.add x.wcet checker_overhead) ~criticality:x.criticality ())
          (Some (Checker { orig = x.id }));
        Idtab.set index.checker x.id (Some cid);
        let lanes = Idtab.get lane_id x.id in
        for lane = 0 to degree - 1 do
          flows :=
            {
              Graph.flow_id = fresh_flow ();
              producer = lanes.(lane);
              consumer = cid;
              msg_size = digest_size;
              deadline = None;
            }
            :: !flows
        done
      end)
    (Graph.tasks workload);
  (* Guards: per-node evidence-verification CPU reserve, pinned. *)
  List.iter
    (fun node ->
      add_task
        (Task.make ~id:(fresh_task ()) ~name:("guard:n" ^ string_of_int node) ~wcet:guard_wcet
           ~criticality:Task.Safety_critical ~pinned:node ())
        (Some (Guard { node })))
    nodes;
  (* A consumer's groups, one per original flow, in ascending order. *)
  List.iter
    (fun (x : Task.t) ->
      match Idtab.get groups x.id with
      | [] -> ()
      | l ->
        let sorted = Array.of_list l in
        Array.sort (fun g g' -> Int.compare g.orig_flow g'.orig_flow) sorted;
        Idtab.set index.inputs x.id sorted)
    !tasks;
  let graph =
    Graph.create_relaxed ~period:(Graph.period workload) ~tasks:(List.rev !tasks)
      ~flows:(List.rev !flows)
  in
  { graph; degree; index }
