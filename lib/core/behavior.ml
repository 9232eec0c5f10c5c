module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Auth = Btr_crypto.Auth

type input = { orig_flow : int; value : float array }
type fn = period:int -> inputs:input list -> float array option

let mix_int64 acc v =
  let open Int64 in
  let z = add acc (mul (of_int v) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  logxor z (shift_right_logical z 27)

let default_compute tid ~period ~inputs =
  match inputs with
  | [] -> None
  | _ ->
    (* Fold the inputs in flow order so the result is independent of
       arrival order; keep floats exact by mixing their bit patterns. *)
    let sorted =
      List.sort (fun a b -> Int.compare a.orig_flow b.orig_flow) inputs
    in
    let acc =
      List.fold_left
        (fun acc { orig_flow; value } ->
          let acc = mix_int64 acc orig_flow in
          Array.fold_left
            (fun acc x -> mix_int64 acc (Int64.to_int (Int64.bits_of_float x)))
            acc value)
        (mix_int64 (Int64.of_int tid) period)
        sorted
    in
    (* Keep the magnitude tame so examples can still plot the values. *)
    Some [| Int64.to_float (Int64.rem acc 1_000_000L) /. 1_000.0 |]

(* [[| task; period |]]: recognizably unique per period, so corruption
   and staleness are observable. *)
let counter_source tid ~period ~inputs:_ =
  Some [| float_of_int tid; float_of_int period |]

let value_digest v =
  let buf = Buffer.create 32 in
  Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf "%h;" x)) v;
  Auth.digest (Buffer.contents buf)

let equal_value a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if Float.abs (x -. b.(i)) > 1e-9 then ok := false) a;
  !ok

type table = (Task.id, fn) Hashtbl.t

let table g ~overrides =
  let t = Hashtbl.create 32 in
  List.iter
    (fun (x : Task.t) ->
      match x.kind with
      | Task.Source -> Hashtbl.replace t x.id (counter_source x.id)
      | Task.Compute -> Hashtbl.replace t x.id (default_compute x.id)
      | Task.Sink -> ())
    (Graph.tasks g);
  List.iter (fun (tid, fn) -> Hashtbl.replace t tid fn) overrides;
  t

let find t tid =
  match Hashtbl.find_opt t tid with
  | Some fn -> fn
  | None -> default_compute tid
