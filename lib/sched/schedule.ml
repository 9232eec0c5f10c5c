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

let pp_failure ppf = function
  | Overload { node; demand; period } ->
    Format.fprintf ppf "node %d overloaded: demand %a > period %a" node Time.pp
      demand Time.pp period
  | Deadline_miss { flow_id; completion; deadline } ->
    Format.fprintf ppf "flow %d misses deadline: completes %a > %a" flow_id
      Time.pp completion Time.pp deadline
  | No_route { src_node; dst_node } ->
    Format.fprintf ppf "no route from node %d to node %d" src_node dst_node

type xfer = src:int -> dst:int -> size_bytes:int -> Time.t option

let list_schedule g ~place ~xfer =
  let exception Fail of failure in
  try
    let by_node = Hashtbl.create 8 in
    let node_tbl = Idtab.of_ids (List.map (fun (x : Task.t) -> x.id) (Graph.tasks g)) None in
    let slot_tbl = Idtab.like node_tbl None in
    let node_free = Inttbl.create 8 in
    let free n = Option.value ~default:Time.zero (Inttbl.find_opt node_free n) in
    let finish_of tid =
      match Idtab.get slot_tbl tid with
      | Some s -> s.finish
      | None -> assert false (* topo order guarantees producers done *)
    in
    List.iter
      (fun tid ->
        let task = Graph.task g tid in
        let node = place tid in
        let ready =
          List.fold_left
            (fun acc (f : Graph.flow) ->
              let pnode = place f.producer in
              let arrival =
                if pnode = node then finish_of f.producer
                else
                  match xfer ~src:pnode ~dst:node ~size_bytes:f.msg_size with
                  | Some d -> Time.add (finish_of f.producer) d
                  | None -> raise (Fail (No_route { src_node = pnode; dst_node = node }))
              in
              Time.max acc arrival)
            Time.zero (Graph.producers_of g tid)
        in
        let start = Time.max ready (free node) in
        let finish = Time.add start task.Task.wcet in
        if Time.compare finish (Graph.period g) > 0 then begin
          (* Distinguish raw overload from precedence-induced overrun by
             reporting the node's total demand. *)
          let demand =
            List.fold_left
              (fun acc (x : Task.t) -> if place x.id = node then Time.add acc x.wcet else acc)
              Time.zero (Graph.tasks g)
          in
          raise (Fail (Overload { node; demand; period = Graph.period g }))
        end;
        let slot = { task = tid; start; finish } in
        Idtab.set node_tbl tid (Some node);
        Idtab.set slot_tbl tid (Some slot);
        Hashtbl.replace by_node node
          (slot :: Option.value ~default:[] (Hashtbl.find_opt by_node node));
        Inttbl.replace node_free node finish)
      (Graph.topo_order g);
    Table.sorted_iter ~cmp:Int.compare
      (fun n slots ->
        Hashtbl.replace by_node n
          (List.sort (fun a b -> Time.compare a.start b.start) slots))
      (Hashtbl.copy by_node);
    let sched = { period = Graph.period g; by_node; node = node_tbl; slot = slot_tbl } in
    (* Sink-flow deadlines: the output reaches the physical world when
       the sink task completes. *)
    List.iter
      (fun (f : Graph.flow) ->
        match f.deadline with
        | None -> ()
        | Some d ->
          let sink_slot = Option.get (Idtab.get slot_tbl f.consumer) in
          if Time.compare sink_slot.finish d > 0 then
            raise
              (Fail
                 (Deadline_miss
                    { flow_id = f.flow_id; completion = sink_slot.finish; deadline = d })))
      (Graph.sink_flows g);
    Ok sched
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
            match xfer ~src:pn ~dst:cn ~size_bytes:f.msg_size with
            | Some d -> Time.add ps.finish d
            | None ->
              err "flow %d: no route %d -> %d" f.flow_id pn cn;
              ps.finish
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
