module Task = Btr_workload.Task
module Graph = Btr_workload.Graph

open Btr_util

(* Both tables key on [Inttbl.pack task period]. *)
type t = {
  graph : Graph.t;
  behaviors : Behavior.table;
  sources : float array Inttbl.t;
  memo : float array option Inttbl.t;  (* [Some] results only *)
}

let create graph behaviors =
  { graph; behaviors; sources = Inttbl.create 64; memo = Inttbl.create 256 }

let note_source t ~task ~period value =
  let k = Inttbl.pack task period in
  if not (Inttbl.mem t.sources k) then Inttbl.replace t.sources k value

let rec value t ~task ~period =
  let k = Inttbl.pack task period in
  match Inttbl.find t.memo k with
  | v -> v
  | exception Not_found ->
    let x = Graph.task t.graph task in
    let v =
      match x.Task.kind with
      | Task.Source -> Inttbl.find_opt t.sources k
      | Task.Sink -> None
      | Task.Compute ->
        let inputs =
          List.filter_map
            (fun (f : Graph.flow) ->
              match value t ~task:f.producer ~period with
              | Some v -> Some { Behavior.orig_flow = f.flow_id; value = v }
              | None -> None)
            (Graph.producers_of t.graph task)
        in
        Behavior.find t.behaviors task ~period ~inputs
    in
    (* Only cache positive results: a [None] may merely mean "queried
       before the source for this period was recorded", and must not
       stick once the recording arrives. *)
    if Option.is_some v then Inttbl.replace t.memo k v;
    v

let digest t ~task ~period =
  Option.map Behavior.value_digest (value t ~task ~period)

let flow_value t ~flow ~period =
  let f = Graph.flow t.graph flow in
  value t ~task:f.producer ~period
