open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph

type slot = { task : Task.id; start : Time.t; finish : Time.t }

type t = {
  period : Time.t;
  by_node : (int, slot list) Hashtbl.t;  (* ascending start *)
  node : int option Idtab.t;
      (* task id -> node; options are stored, so [node_of] allocates nothing *)
  slot : slot option Idtab.t;  (* task id -> slot *)
}

type failure =
  | Overload of { node : int; demand : Time.t; period : Time.t }
  | Deadline_miss of { flow_id : int; completion : Time.t; deadline : Time.t }
  | No_route of { src_node : int; dst_node : int }

exception Fail of failure

let pp_failure ppf = function
  | Overload { node; demand; period } ->
    Format.fprintf ppf "node %d overloaded: demand %a > period %a" node Time.pp
      demand Time.pp period
  | Deadline_miss { flow_id; completion; deadline } ->
    Format.fprintf ppf "flow %d misses deadline: completes %a > %a" flow_id
      Time.pp completion Time.pp deadline
  | No_route { src_node; dst_node } ->
    Format.fprintf ppf "no route from node %d to node %d" src_node dst_node

type xfer = src:int -> dst:int -> size_bytes:int -> Time.t

let rec demand_on place node acc = function
  | [] -> acc
  | (x : Task.t) :: rest ->
    demand_on place node (if place x.id = node then Time.add acc x.wcet else acc) rest

(* When every input of [node]'s task has arrived: the latest producer
   finish plus its transfer. *)
let rec ready_at slot_tbl ~place ~xfer node acc = function
  | [] -> acc
  | (f : Graph.flow) :: rest ->
    let pnode = place f.producer in
    let finish =
      match Idtab.get slot_tbl f.producer with
      | Some s -> s.finish
      | None -> assert false (* topo order guarantees producers done *)
    in
    let arrival =
      if pnode = node then finish
      else
        let d = xfer ~src:pnode ~dst:node ~size_bytes:f.msg_size in
        if d = Time.infinity then raise_notrace (Fail (No_route { src_node = pnode; dst_node = node }))
        else Time.add finish d
    in
    ready_at slot_tbl ~place ~xfer node (Time.max acc arrival) rest

let slots_of by_node n = match Hashtbl.find by_node n with l -> l | exception Not_found -> []

let list_schedule g ~place ~xfer =
  try
    let by_node = Hashtbl.create 8 in
    let node_tbl = Graph.task_table g None in
    let slot_tbl = Idtab.like node_tbl None in
    List.iter
      (fun tid ->
        let task = Graph.task g tid in
        let node = place tid in
        let ready = ready_at slot_tbl ~place ~xfer node Time.zero (Graph.producers_of g tid) in
        (* Slots go onto a node in ascending start, so the newest one
           ends last. *)
        let on_node = slots_of by_node node in
        let free = match on_node with [] -> Time.zero | s :: _ -> s.finish in
        let start = Time.max ready free in
        let finish = Time.add start task.Task.wcet in
        if Time.compare finish (Graph.period g) > 0 then
          (* Distinguish raw overload from precedence-induced overrun by
             reporting the node's total demand. *)
          raise_notrace
            (Fail
               (Overload
                  {
                    node;
                    demand = demand_on place node Time.zero (Graph.tasks g);
                    period = Graph.period g;
                  }));
        let slot = { task = tid; start; finish } in
        Idtab.set node_tbl tid (Some node);
        Idtab.set slot_tbl tid (Some slot);
        Hashtbl.replace by_node node (slot :: on_node))
      (Graph.topo_order g);
    (* Every node's start times strictly increase (each slot starts at
       or after the previous one's finish, and a WCET is positive), so
       reversing gives ascending start. *)
    Hashtbl.filter_map_inplace (fun _ slots -> Some (List.rev slots)) by_node;
    (* Sink-flow deadlines: the output reaches the physical world when
       the sink task completes. *)
    List.iter
      (fun (f : Graph.flow) ->
        match f.deadline with
        | Some d when (Graph.task g f.consumer).Task.kind = Task.Sink -> (
          match Idtab.get slot_tbl f.consumer with
          | Some sink_slot when Time.compare sink_slot.finish d > 0 ->
            raise_notrace
              (Fail (Deadline_miss { flow_id = f.flow_id; completion = sink_slot.finish; deadline = d }))
          | Some _ -> ()
          | None -> assert false (* every task has a slot *))
        | _ -> ())
      (Graph.flows g);
    Ok { period = Graph.period g; by_node; node = node_tbl; slot = slot_tbl }
  with Fail f -> Error f

let nodes t = Table.sorted_keys ~cmp:Int.compare t.by_node

let slots_on t n = Option.value ~default:[] (Hashtbl.find_opt t.by_node n)

let window t tid = Option.map (fun s -> (s.start, s.finish)) (Idtab.get t.slot tid)

let node_of t tid = Idtab.get t.node tid

let node_utilization t n =
  let busy =
    List.fold_left (fun acc s -> Time.add acc (Time.sub s.finish s.start)) Time.zero
      (slots_on t n)
  in
  Time.to_sec_f busy /. Time.to_sec_f t.period

let validate t g ~xfer =
  let problems = ref [] in
  let err fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  (* Slots within the period and non-overlapping per node. Sorted
     traversal: the problem list's order is part of the error string. *)
  Table.sorted_iter ~cmp:Int.compare
    (fun n slots ->
      let rec check_overlap = function
        | a :: (b :: _ as rest) ->
          if Time.compare a.finish b.start > 0 then
            err "node %d: slots for tasks %d and %d overlap" n a.task b.task;
          check_overlap rest
        | _ -> ()
      in
      check_overlap slots;
      List.iter
        (fun s ->
          if Time.compare s.start Time.zero < 0 || Time.compare s.finish t.period > 0
          then err "node %d: slot for task %d outside [0, period]" n s.task;
          let wcet = (Graph.task g s.task).Task.wcet in
          if not (Time.equal (Time.sub s.finish s.start) wcet) then
            err "task %d: slot length differs from wcet" s.task)
        slots)
    t.by_node;
  (* Every task has a slot: the runtime's abstention rule assumes every
     augmented task is placed. *)
  List.iter
    (fun (x : Task.t) ->
      if Idtab.get t.slot x.id = None then err "task %d not scheduled" x.id)
    (Graph.tasks g);
  (* Precedence edges. *)
  List.iter
    (fun (f : Graph.flow) ->
      match node_of t f.producer, Idtab.get t.slot f.producer,
            node_of t f.consumer, Idtab.get t.slot f.consumer
      with
      | Some pn, Some ps, Some cn, Some cs ->
        let arrival =
          if pn = cn then ps.finish
          else
            let d = xfer ~src:pn ~dst:cn ~size_bytes:f.msg_size in
            if d = Time.infinity then begin
              err "flow %d: no route %d -> %d" f.flow_id pn cn;
              ps.finish
            end
            else Time.add ps.finish d
        in
        if Time.compare cs.start arrival < 0 then
          err "flow %d: consumer %d starts before input arrives" f.flow_id f.consumer
      | _ -> () (* an endpoint without a slot is reported above *))
    (Graph.flows g);
  (* Deadlines. *)
  List.iter
    (fun (f : Graph.flow) ->
      match f.deadline, Idtab.get t.slot f.consumer with
      | Some d, Some s when Time.compare s.finish d > 0 ->
        err "flow %d: deadline missed" f.flow_id
      | _ -> ())
    (Graph.sink_flows g);
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " (List.rev ps))

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule (period %a):@," Time.pp t.period;
  List.iter
    (fun n ->
      Format.fprintf ppf "  node %d:" n;
      List.iter
        (fun s -> Format.fprintf ppf " [%a,%a)t%d" Time.pp s.start Time.pp s.finish s.task)
        (slots_on t n);
      Format.fprintf ppf "@,")
    (nodes t);
  Format.fprintf ppf "@]"
