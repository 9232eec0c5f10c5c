open Btr_util

type flow = {
  flow_id : int;
  producer : Task.id;
  consumer : Task.id;
  msg_size : int;
  deadline : Time.t option;
}

(* Every id-keyed part lives in an [Idtab]: tasks and their flow lists
   offset by the smallest task id, flows by the smallest flow id. Ids
   are dense (see [Idtab]), so each table is about one word per id. *)
type t = {
  period : Time.t;
  task_list : Task.t list;
  flow_list : flow list;
  by_id : Task.t option Idtab.t;
  flow_by_id : flow option Idtab.t;
  incoming : flow list Idtab.t;  (* ascending flow id *)
  outgoing : flow list Idtab.t;  (* ascending flow id *)
  order : Task.id list;
}

(* The table spanning every id [id_of] gives the list's elements. *)
let spanning id_of xs absent =
  match xs with
  | [] -> Idtab.span ~lo:0 ~hi:(-1) absent
  | x :: _ ->
    let lo = ref (id_of x) and hi = ref (id_of x) in
    List.iter
      (fun x ->
        let id = id_of x in
        if id < !lo then lo := id;
        if id > !hi then hi := id)
      xs;
    Idtab.span ~lo:!lo ~hi:!hi absent

let task_id (t : Task.t) = t.id
let flow_id f = f.flow_id

let build ~relaxed ~period ~tasks ~flows =
  if period <= 0 then invalid_arg "Graph.create: period <= 0";
  (* A table spans every id it is filled with, so [set] cannot fail and
     a duplicate finds its slot already taken. *)
  let by_id = spanning task_id tasks None in
  List.iter
    (fun (t : Task.t) ->
      if Option.is_some (Idtab.get by_id t.id) then
        invalid_arg "Graph.create: duplicate task ids";
      Idtab.set by_id t.id (Some t))
    tasks;
  let flow_by_id = spanning flow_id flows None in
  List.iter
    (fun f ->
      if Option.is_some (Idtab.get flow_by_id f.flow_id) then
        invalid_arg "Graph.create: duplicate flow ids";
      Idtab.set flow_by_id f.flow_id (Some f))
    flows;
  let find id =
    match Idtab.get by_id id with
    | Some t -> t
    | None -> invalid_arg (Printf.sprintf "Graph.create: flow references unknown task %d" id)
  in
  List.iter
    (fun f ->
      let p = find f.producer and c = find f.consumer in
      if f.msg_size <= 0 then
        invalid_arg (Printf.sprintf "Graph.create: flow %d msg_size <= 0" f.flow_id);
      (match f.deadline with
      | Some d when d <= 0 ->
        invalid_arg (Printf.sprintf "Graph.create: flow %d deadline <= 0" f.flow_id)
      | _ -> ());
      if p.kind = Task.Sink then
        invalid_arg (Printf.sprintf "Graph.create: sink %d produces flow %d" p.id f.flow_id);
      if c.kind = Task.Source then
        invalid_arg
          (Printf.sprintf "Graph.create: source %d consumes flow %d" c.id f.flow_id))
    flows;
  (* Consing flows from the largest id down leaves every list in
     ascending flow id. *)
  let incoming = Idtab.like by_id [] and outgoing = Idtab.like by_id [] in
  Idtab.fold_right
    (fun slot () ->
      match slot with
      | None -> ()
      | Some f ->
        Idtab.set outgoing f.producer (f :: Idtab.get outgoing f.producer);
        Idtab.set incoming f.consumer (f :: Idtab.get incoming f.consumer))
    flow_by_id ();
  if not relaxed then
    List.iter
      (fun (t : Task.t) ->
        match t.kind with
        | Task.Sink ->
          if Idtab.get incoming t.id = [] then
            invalid_arg (Printf.sprintf "Graph.create: sink %d has no inputs" t.id)
        | Task.Source | Task.Compute ->
          if Idtab.get outgoing t.id = [] then
            invalid_arg
              (Printf.sprintf "Graph.create: non-sink task %d has no outputs" t.id))
      tasks;
  (* Cycle check via Kahn's algorithm; also yields the topo order. *)
  let indeg = Idtab.like by_id 0 in
  List.iter
    (fun (t : Task.t) -> Idtab.set indeg t.id (List.length (Idtab.get incoming t.id)))
    tasks;
  (* FIFO over newly-ready tasks, in one array since each task is
     queued once; the order tasks leave it is the topological order. *)
  let count = List.length tasks in
  let q = Array.make count 0 and tail = ref 0 in
  let push id =
    q.(!tail) <- id;
    incr tail
  in
  List.iter (fun (t : Task.t) -> if Idtab.get indeg t.id = 0 then push t.id) tasks;
  let head = ref 0 in
  while !head < !tail do
    let id = q.(!head) in
    incr head;
    List.iter
      (fun f ->
        let d = Idtab.get indeg f.consumer - 1 in
        Idtab.set indeg f.consumer d;
        if d = 0 then push f.consumer)
      (Idtab.get outgoing id)
  done;
  if !tail <> count then invalid_arg "Graph.create: dataflow graph has a cycle";
  {
    period;
    task_list = tasks;
    flow_list = flows;
    by_id;
    flow_by_id;
    incoming;
    outgoing;
    order = Array.to_list q;
  }

let create ~period ~tasks ~flows = build ~relaxed:false ~period ~tasks ~flows
let create_relaxed ~period ~tasks ~flows = build ~relaxed:true ~period ~tasks ~flows

let period t = t.period
let tasks t = t.task_list
let flows t = t.flow_list

let task t id =
  match Idtab.get t.by_id id with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Graph.task: unknown task %d" id)

let flow t id =
  match Idtab.get t.flow_by_id id with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Graph.flow: unknown flow %d" id)

let task_count t = List.length t.task_list
let task_table t absent = Idtab.like t.by_id absent
let producers_of t id = Idtab.get t.incoming id
let consumers_of t id = Idtab.get t.outgoing id
let sources t = List.filter (fun (x : Task.t) -> x.kind = Task.Source) t.task_list
let sinks t = List.filter (fun (x : Task.t) -> x.kind = Task.Sink) t.task_list
let compute_tasks t = List.filter (fun (x : Task.t) -> x.kind = Task.Compute) t.task_list

let topo_order t = t.order

let sink_flows t =
  List.filter (fun f -> (task t f.consumer).Task.kind = Task.Sink) t.flow_list

let utilization t =
  List.fold_left
    (fun acc (x : Task.t) -> acc +. (Time.to_sec_f x.wcet /. Time.to_sec_f t.period))
    0.0 t.task_list

let restrict t ~keep =
  let kept = List.filter keep t.task_list in
  let marked = Idtab.like t.by_id false in
  List.iter (fun (x : Task.t) -> Idtab.set marked x.id true) kept;
  let kept_flows =
    List.filter (fun f -> Idtab.get marked f.producer && Idtab.get marked f.consumer) t.flow_list
  in
  build ~relaxed:true ~period:t.period ~tasks:kept ~flows:kept_flows

let pp ppf t =
  Format.fprintf ppf "@[<v>workload: period=%a, %d tasks, %d flows, U=%.2f@,"
    Time.pp t.period (task_count t) (List.length t.flow_list) (utilization t);
  List.iter (fun x -> Format.fprintf ppf "  %a@," Task.pp x) t.task_list;
  List.iter
    (fun f ->
      Format.fprintf ppf "  flow %d: %d -> %d, %dB%s@," f.flow_id f.producer
        f.consumer f.msg_size
        (match f.deadline with
        | Some d -> Printf.sprintf ", deadline %s" (Time.to_string d)
        | None -> ""))
    t.flow_list;
  Format.fprintf ppf "@]"
