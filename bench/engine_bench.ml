(* Sim-engine hot-path throughput: every campaign trial spins on
   push/step, so regressions here multiply across thousands of trials.
   Four axes: raw schedule+drain throughput, steady-state throughput at
   increasing queue depths (periodic tasks re-arming themselves, the
   runtime's actual shape), a steady one-shot load (each event
   schedules its successor, the shape of message hops and slot runs),
   and drain time under increasing cancelled fractions. Each row also
   reports the allocation diet: cells allocated fresh vs served from
   the wheel's pool, and minor words allocated per event fired over
   the timed window. Writes BENCH_engine.json with --json. *)

open Btr_util
module Engine = Btr_sim.Engine

(* btr-lint: allow wall-clock — benchmark timing is inherently
   wall-clock; simulated results stay deterministic. *)
let now () = Unix.gettimeofday ()

let events_per_sec events dt = int_of_float ((float_of_int events /. dt) +. 0.5)

let engine_counter e name =
  match
    List.assoc_opt
      ("sim.engine." ^ name)
      (Btr_obs.Obs.Registry.counters (Btr_obs.Obs.registry (Engine.obs e)))
  with
  | Some v -> v
  | None -> 0

(* A row's measurements: events fired, seconds, fresh cells, pooled
   cells, minor words per event fired. *)
type row = { events : int; dt : float; cells : int; pooled : int; words : float }

(* Time [f], which runs engine [e] from creation, and count its minor
   words per event fired; the cell counters cover the engine's whole
   life. *)
let measure e f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  f ();
  let dt = now () -. t0 in
  let n = Engine.events_processed e in
  {
    events = n;
    dt;
    cells = engine_counter e "cells";
    pooled = engine_counter e "pool-reuse";
    words = (Gc.minor_words () -. w0) /. float_of_int (Stdlib.max 1 n);
  }

let nop _ = ()

(* One-shot events at scattered times, drained once: the push/step
   baseline with no re-arming and no cancellations. *)
let bench_drain n =
  let e = Engine.create () in
  let r =
    measure e (fun () ->
        for i = 1 to n do
          Engine.schedule e ~at:(i * 7919 mod 1_000_003) nop
        done;
        Engine.run e)
  in
  assert (r.events = n);
  r

(* [depth] periodic tasks re-arm themselves until ~[total] events have
   fired: sustained throughput with the queue pinned at [depth]. *)
let bench_depth ~depth ~total =
  let e = Engine.create () in
  let period = Time.ms 1 in
  let fired = ref 0 in
  for i = 0 to depth - 1 do
    (* stagger starts across one period so every task is live from the
       first period whatever the depth *)
    ignore
      (Engine.every e ~period ~start:(Time.us (i mod period)) (fun _ ->
           incr fired))
  done;
  let horizon = Time.mul period (total / depth) in
  let r = measure e (fun () -> Engine.run ~until:horizon e) in
  assert (r.events = !fired);
  r

(* [chains] one-shot chains, each event scheduling its successor
   [delay] µs on, until [total] events have fired: the queue holds
   [chains] events throughout and every cell comes from the pool. *)
let bench_oneshot ~chains ~total =
  let e = Engine.create () in
  let fired = ref 0 in
  let rec hop e =
    incr fired;
    if !fired <= total - chains then Engine.schedule_in e ~delay:997 hop
  in
  for i = 0 to chains - 1 do
    Engine.schedule e ~at:i hop
  done;
  let r = measure e (fun () -> Engine.run e) in
  assert (r.events = total);
  r

(* Arm [n] periodic events at scattered first firings, cancel [pct]% of
   them up front, and run through every first firing. The wheel
   unlinks cancelled cells eagerly, so the run's cost must scale with
   the live events only. The period outlasts the run, so each live
   event fires once and re-arms once. *)
let bench_cancelled ~n ~pct =
  let e = Engine.create () in
  let live = ref 0 in
  let last = 1_000_002 in
  let handles =
    Array.init n (fun i ->
        Engine.every e ~period:(2 * last) ~start:(i * 7919 mod (last + 1)) (fun _ ->
            incr live))
  in
  Array.iteri (fun i h -> if i mod 100 < pct then Engine.cancel h) handles;
  let expected = Engine.pending e in
  let r = measure e (fun () -> Engine.run ~until:last e) in
  assert (r.events = expected && !live = expected);
  r

let run ?json_file ?max_depth () =
  let drain_n = 200_000 in
  let depths =
    let all = [ 100; 1_000; 10_000; 100_000; 1_000_000 ] in
    match max_depth with
    | None -> all
    | Some cap -> List.filter (fun d -> d <= cap) all
  in
  (* enough horizon that even the deepest row sustains two full periods
     (shallower rows just re-arm more often), and enough events that
     every row runs long enough to measure above scheduler noise *)
  let depth_total depth = max 1_000_000 (2 * depth) in
  let oneshot_chains = 1_000 and oneshot_total = 1_000_000 in
  let cancel_n = 100_000 in
  let cancel_pcts = [ 0; 25; 50; 90 ] in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "EB  Engine throughput (%d-event workloads)" drain_n)
      ~header:
        [ "workload"; "events"; "seconds"; "events/sec"; "cells"; "pooled"; "words/event" ]
  in
  let row name r =
    Table.add_row table
      [
        name;
        string_of_int r.events;
        Printf.sprintf "%.3f" r.dt;
        string_of_int (events_per_sec r.events r.dt);
        string_of_int r.cells;
        string_of_int r.pooled;
        Printf.sprintf "%.2f" r.words;
      ]
  in
  let drain = bench_drain drain_n in
  row "schedule+drain" drain;
  let depth_rows =
    List.map
      (fun depth ->
        let r = bench_depth ~depth ~total:(depth_total depth) in
        row (Printf.sprintf "steady depth %d" depth) r;
        (depth, r))
      depths
  in
  let oneshot = bench_oneshot ~chains:oneshot_chains ~total:oneshot_total in
  row (Printf.sprintf "steady one-shot, %d chains" oneshot_chains) oneshot;
  let cancel_rows =
    List.map
      (fun pct ->
        let r = bench_cancelled ~n:cancel_n ~pct in
        row (Printf.sprintf "cancelled %d%%" pct) r;
        (pct, r))
      cancel_pcts
  in
  Table.print table;
  match json_file with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    let millis r = int_of_float ((r.dt *. 1000.0) +. 0.5) in
    let tail r =
      Printf.sprintf
        "\"millis\":%d,\"events_per_sec\":%d,\"cells_allocated\":%d,\"cells_reused\":%d,\"words_per_event\":%.2f}"
        (millis r)
        (events_per_sec r.events r.dt)
        r.cells r.pooled r.words
    in
    Printf.fprintf oc
      "{\"bench\":\"engine\",\"drain_events\":%d,\"drain_millis\":%d,\"drain_events_per_sec\":%d,\"cells_allocated\":%d,\"cells_reused\":%d,\"words_per_event\":%.2f}\n"
      drain_n (millis drain)
      (events_per_sec drain_n drain.dt)
      drain.cells drain.pooled drain.words;
    List.iter
      (fun (depth, r) ->
        Printf.fprintf oc "{\"mode\":\"depth\",\"depth\":%d,\"events\":%d,%s\n" depth
          r.events (tail r))
      depth_rows;
    Printf.fprintf oc "{\"mode\":\"oneshot\",\"chains\":%d,\"events\":%d,%s\n"
      oneshot_chains oneshot.events (tail oneshot);
    List.iter
      (fun (pct, r) ->
        Printf.fprintf oc
          "{\"mode\":\"cancelled\",\"cancelled_pct\":%d,\"live_events\":%d,%s\n" pct
          r.events (tail r))
      cancel_rows;
    close_out oc;
    Printf.printf "wrote %s\n" file
