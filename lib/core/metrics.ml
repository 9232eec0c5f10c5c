open Btr_util
module Graph = Btr_workload.Graph
module Obs = Btr_obs.Obs

type status = Correct | Wrong | Missing | Late | Shed

let status_char = function
  | Correct -> 'C'
  | Wrong -> 'W'
  | Missing -> 'M'
  | Late -> 'L'
  | Shed -> 'S'

(* Lowercase stable names: telemetry carries them. *)
let status_name = function
  | Correct -> "correct"
  | Wrong -> "wrong"
  | Missing -> "missing"
  | Late -> "late"
  | Shed -> "shed"

type delivery = { value : float array; arrived : Time.t; lane : int }

type t = {
  graph : Graph.t;
  period_len : Time.t;
  sink_flows : Graph.flow list;
  protected_ids : int list;
  obs : Obs.t;
  verdict_counters : Obs.Counter.t array;  (* indexed like [status] *)
  (* Both by [Inttbl.pack orig_flow period]. *)
  deliveries : delivery Inttbl.t;
  statuses : status Inttbl.t;
  mutable finalized : int;
  mutable rev_injections : (Time.t * int * string) list;
}

let status_index = function
  | Correct -> 0
  | Wrong -> 1
  | Missing -> 2
  | Late -> 3
  | Shed -> 4

let create ?(obs = Obs.null) ?protected_flows graph =
  let sink_flows = Graph.sink_flows graph in
  let protected_ids =
    match protected_flows with
    | Some l -> l
    | None -> List.map (fun (f : Graph.flow) -> f.flow_id) sink_flows
  in
  let reg = Obs.registry obs in
  {
    graph;
    period_len = Graph.period graph;
    sink_flows;
    protected_ids;
    obs;
    verdict_counters =
      Array.map
        (fun s -> Obs.Registry.counter reg Obs.Runtime ("verdicts." ^ s))
        [| "correct"; "wrong"; "missing"; "late"; "shed" |];
    deliveries = Inttbl.create 256;
    statuses = Inttbl.create 256;
    finalized = 0;
    rev_injections = [];
  }

let record_injection t ~at ~node ~what =
  t.rev_injections <- (at, node, what) :: t.rev_injections;
  if Obs.enabled t.obs then
    Obs.emit t.obs ~at ~node Obs.Fault (Obs.Fault_injected { behavior = what })

let record_delivery t ~orig_flow ~period ~value ~arrived ~lane =
  let k = Inttbl.pack orig_flow period in
  if not (Inttbl.mem t.deliveries k) then begin
    Inttbl.replace t.deliveries k { value; arrived; lane };
    if Obs.enabled t.obs then
      Obs.emit t.obs ~at:arrived Obs.Runtime
        (Obs.Delivery { flow = orig_flow; period; lane })
  end

let judge t golden ~shed (f : Graph.flow) period =
  if List.mem f.flow_id shed then Shed
  else begin
    let expected = Golden.flow_value golden ~flow:f.flow_id ~period in
    let delivered = Inttbl.find_opt t.deliveries (Inttbl.pack f.flow_id period) in
    match expected, delivered with
    | None, None -> Correct (* nothing was due, nothing was acted on *)
    | None, Some _ -> Wrong (* acted on a value no correct system produces *)
    | Some _, None -> Missing
    | Some v, Some d ->
      if not (Behavior.equal_value v d.value) then Wrong
      else begin
        let on_time =
          match f.deadline with
          | None -> true
          | Some dl ->
            let due = Time.add (Time.mul t.period_len period) dl in
            Time.compare d.arrived due <= 0
        in
        if on_time then Correct else Late
      end
  end

let finalize_period t ~golden ~period ~shed =
  let verdict_at = Time.mul t.period_len (period + 1) in
  (* A period is judged once; guard against double-counting if a
     caller re-finalizes. *)
  let fresh flow = not (Inttbl.mem t.statuses (Inttbl.pack flow period)) in
  if Obs.enabled t.obs then
    List.iter
      (fun flow ->
        if fresh flow then
          Obs.emit t.obs ~at:verdict_at Obs.Runtime (Obs.Shed { flow; period }))
      shed;
  List.iter
    (fun (f : Graph.flow) ->
      let s = judge t golden ~shed f period in
      if fresh f.flow_id then begin
        Obs.Counter.incr t.verdict_counters.(status_index s);
        if Obs.enabled t.obs then
          Obs.emit t.obs ~at:verdict_at Obs.Runtime
            (Obs.Verdict
               { flow = f.flow_id; period; status = status_name s })
      end;
      Inttbl.replace t.statuses (Inttbl.pack f.flow_id period) s)
    t.sink_flows;
  if period >= t.finalized then t.finalized <- period + 1

let periods_finalized t = t.finalized
let status t ~orig_flow ~period = Inttbl.find_opt t.statuses (Inttbl.pack orig_flow period)

let timeline t ~orig_flow =
  List.init t.finalized (fun p ->
      Option.value ~default:Missing (status t ~orig_flow ~period:p))

let lanes_used t ~orig_flow =
  let acc = Hashtbl.create 4 in
  List.iter
    (fun k ->
      if Inttbl.hi k = orig_flow then
        let d = Inttbl.find t.deliveries k in
        Hashtbl.replace acc d.lane
          (1 + Option.value ~default:0 (Hashtbl.find_opt acc d.lane)))
    (Inttbl.sorted_keys t.deliveries);
  Table.sorted_bindings ~cmp:Int.compare acc

let injections t = List.rev t.rev_injections

let fold_statuses t fn init =
  List.fold_left
    (fun acc (f : Graph.flow) ->
      List.fold_left
        (fun acc p ->
          match Inttbl.find t.statuses (Inttbl.pack f.flow_id p) with
          | s -> fn acc s
          | exception Not_found -> acc)
        acc
        (List.init t.finalized Fun.id))
    init t.sink_flows

let correct_fraction t =
  let correct, total =
    fold_statuses t
      (fun (c, n) s ->
        match s with
        | Shed -> (c, n)
        | Correct -> (c + 1, n + 1)
        | Wrong | Missing | Late -> (c, n + 1))
      (0, 0)
  in
  if total = 0 then 1.0 else float_of_int correct /. float_of_int total

let deadline_miss_fraction t =
  let missed, total =
    fold_statuses t
      (fun (m, n) s ->
        match s with
        | Shed -> (m, n)
        | Missing | Late -> (m + 1, n + 1)
        | Correct | Wrong -> (m, n + 1))
      (0, 0)
  in
  if total = 0 then 0.0 else float_of_int missed /. float_of_int total

let protected_flows t = t.protected_ids

(* A period is "bad" when any non-shed protected output is not Correct.
   Unprotected (below protect-level) outputs have no replicas and no
   checkers, so BTR makes no recovery promise about them. *)
let bad_period t p =
  List.exists
    (fun (f : Graph.flow) ->
      List.mem f.flow_id t.protected_ids
      &&
      match Inttbl.find t.statuses (Inttbl.pack f.flow_id p) with
      | Wrong | Missing | Late -> true
      | Correct | Shed | (exception Not_found) -> false)
    t.sink_flows

let incorrect_time t =
  let bad = List.filter (bad_period t) (List.init t.finalized Fun.id) in
  Time.mul t.period_len (List.length bad)

let recovery_times t =
  let horizon = Time.mul t.period_len t.finalized in
  let injs = injections t in
  let windows =
    List.mapi
      (fun i (at, _, _) ->
        let upto =
          match List.nth_opt injs (i + 1) with Some (b, _, _) -> b | None -> horizon
        in
        (at, upto))
      injs
  in
  List.map
    (fun (at, upto) ->
      let first_period = at / t.period_len in
      let last_period = Stdlib.min (t.finalized - 1) ((upto - 1) / t.period_len) in
      let rec last_bad p acc =
        if p > last_period then acc
        else last_bad (p + 1) (if bad_period t p then Some p else acc)
      in
      match last_bad first_period None with
      | None -> Time.zero
      | Some p -> Time.sub (Time.mul t.period_len (p + 1)) at)
    windows

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>outputs: %d sink flows x %d periods, correct %.1f%%, deadline-miss %.1f%%, incorrect time %a@,"
    (List.length t.sink_flows) t.finalized
    (100.0 *. correct_fraction t)
    (100.0 *. deadline_miss_fraction t)
    Time.pp (incorrect_time t);
  List.iter
    (fun (f : Graph.flow) ->
      let line =
        String.init (Stdlib.min 80 t.finalized) (fun p ->
            status_char
              (Option.value ~default:Missing
                 (status t ~orig_flow:f.flow_id ~period:p)))
      in
      Format.fprintf ppf "  flow %d: %s@," f.flow_id line)
    t.sink_flows;
  Format.fprintf ppf "@]"
