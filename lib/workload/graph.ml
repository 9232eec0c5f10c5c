open Btr_util

type flow = {
  flow_id : int;
  producer : Task.id;
  consumer : Task.id;
  msg_size : int;
  deadline : Time.t option;
}

type t = {
  period : Time.t;
  task_list : Task.t list;
  flow_list : flow list;
  by_id : (Task.id, Task.t) Hashtbl.t;
  flow_by_id : (int, flow) Hashtbl.t;
  incoming : (Task.id, flow list) Hashtbl.t;
  outgoing : (Task.id, flow list) Hashtbl.t;
  order : Task.id list;
}

(* Same verdict as the naive pairwise scan, linear so fleet-scale
   graphs (10^4 tasks) validate in milliseconds. *)
let distinct xs =
  let seen = Hashtbl.create 64 in
  List.for_all
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.replace seen x ();
        true
      end)
    xs

let build ~relaxed ~period ~tasks ~flows =
  if period <= 0 then invalid_arg "Graph.create: period <= 0";
  if not (distinct (List.map (fun (t : Task.t) -> t.id) tasks)) then
    invalid_arg "Graph.create: duplicate task ids";
  if not (distinct (List.map (fun f -> f.flow_id) flows)) then
    invalid_arg "Graph.create: duplicate flow ids";
  let by_id = Hashtbl.create 32 in
  List.iter (fun (t : Task.t) -> Hashtbl.replace by_id t.id t) tasks;
  let flow_by_id = Hashtbl.create 32 in
  List.iter (fun f -> Hashtbl.replace flow_by_id f.flow_id f) flows;
  let find id =
    match Hashtbl.find_opt by_id id with
    | Some t -> t
    | None -> invalid_arg (Printf.sprintf "Graph.create: flow references unknown task %d" id)
  in
  let incoming = Hashtbl.create 32 and outgoing = Hashtbl.create 32 in
  List.iter
    (fun (t : Task.t) ->
      Hashtbl.replace incoming t.id [];
      Hashtbl.replace outgoing t.id [])
    tasks;
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
          (Printf.sprintf "Graph.create: source %d consumes flow %d" c.id f.flow_id);
      Hashtbl.replace outgoing p.id (f :: Hashtbl.find outgoing p.id);
      Hashtbl.replace incoming c.id (f :: Hashtbl.find incoming c.id))
    flows;
  let sorted_flows tbl id =
    List.sort (fun a b -> Int.compare a.flow_id b.flow_id) (Hashtbl.find tbl id)
  in
  List.iter
    (fun (t : Task.t) ->
      Hashtbl.replace incoming t.id (sorted_flows incoming t.id);
      Hashtbl.replace outgoing t.id (sorted_flows outgoing t.id))
    tasks;
  if not relaxed then
    List.iter
      (fun (t : Task.t) ->
        match t.kind with
        | Task.Sink ->
          if Hashtbl.find incoming t.id = [] then
            invalid_arg (Printf.sprintf "Graph.create: sink %d has no inputs" t.id)
        | Task.Source | Task.Compute ->
          if Hashtbl.find outgoing t.id = [] then
            invalid_arg
              (Printf.sprintf "Graph.create: non-sink task %d has no outputs" t.id))
      tasks;
  (* Cycle check via Kahn's algorithm; also yields the topo order. *)
  let indeg = Hashtbl.create 32 in
  List.iter
    (fun (t : Task.t) -> Hashtbl.replace indeg t.id (List.length (Hashtbl.find incoming t.id)))
    tasks;
  let ready =
    List.filter_map
      (fun (t : Task.t) -> if Hashtbl.find indeg t.id = 0 then Some t.id else None)
      tasks
  in
  (* FIFO over newly-ready tasks — a Queue gives the exact order the
     old list-append formulation produced, without its O(n²) appends. *)
  let q = Queue.create () in
  List.iter (fun id -> Queue.push id q) ready;
  let acc = ref [] in
  while not (Queue.is_empty q) do
    let id = Queue.pop q in
    acc := id :: !acc;
    List.iter
      (fun f ->
        let d = Hashtbl.find indeg f.consumer - 1 in
        Hashtbl.replace indeg f.consumer d;
        if d = 0 then Queue.push f.consumer q)
      (Hashtbl.find outgoing id)
  done;
  let order = List.rev !acc in
  if List.length order <> List.length tasks then
    invalid_arg "Graph.create: dataflow graph has a cycle";
  {
    period;
    task_list = tasks;
    flow_list = flows;
    by_id;
    flow_by_id;
    incoming;
    outgoing;
    order;
  }

let create ~period ~tasks ~flows = build ~relaxed:false ~period ~tasks ~flows
let create_relaxed ~period ~tasks ~flows = build ~relaxed:true ~period ~tasks ~flows

let period t = t.period
let tasks t = t.task_list
let flows t = t.flow_list

let task t id =
  match Hashtbl.find_opt t.by_id id with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Graph.task: unknown task %d" id)

let flow t id =
  match Hashtbl.find_opt t.flow_by_id id with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Graph.flow: unknown flow %d" id)

let task_count t = List.length t.task_list
let producers_of t id = match Hashtbl.find_opt t.incoming id with Some l -> l | None -> []
let consumers_of t id = match Hashtbl.find_opt t.outgoing id with Some l -> l | None -> []
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
  let ids = Hashtbl.create 64 in
  List.iter (fun (x : Task.t) -> Hashtbl.replace ids x.id ()) kept;
  let kept_flows =
    List.filter
      (fun f -> Hashtbl.mem ids f.producer && Hashtbl.mem ids f.consumer)
      t.flow_list
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
