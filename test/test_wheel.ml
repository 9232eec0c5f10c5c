(* The engine against a reference model.

   [Model] below is the engine's contract stated the obvious way:
   pending events in a map ordered by (at, seq) with the model's own
   insertion counter, eager cancel, periodic re-arm after the callback
   returns. The engine keeps no sequence numbers — its timing wheel
   (Btr_util.Twheel) yields FIFO order on equal deadlines structurally —
   so every comparison here checks that structure against explicit
   seq order. A random op-script interpreter drives both over the same
   script and compares full traces: every (callback, clock) firing, the
   pending count, clock and event count after each op, and the
   scheduled/fired/cancelled counters. Targeted scripts cover the
   adversarial corners (same-µs bursts, cancel of an already-fired
   handle, far-future events beyond the wheels' 2^26 µs span, cursor
   rewind after a horizon-bounded run, a periodic cancelling itself
   from its own callback), and engine-only tests pin the allocation
   diet, the cancel path and the end-to-end campaign bytes. *)

open Btr_util
module Engine = Btr_sim.Engine
module Obs = Btr_obs.Obs
module Campaign = Btr_campaign.Campaign
module Scenario = Btr.Scenario

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let engine_counter e name =
  match
    List.assoc_opt ("sim.engine." ^ name)
      (Obs.Registry.counters (Obs.registry (Engine.obs e)))
  with
  | Some v -> v
  | None -> 0

(* {1 The engine surface under comparison} *)

module type ENGINE = sig
  type t
  type handle

  val create : unit -> t
  val now : t -> Time.t
  val schedule : t -> at:Time.t -> (t -> unit) -> unit
  val every : t -> period:Time.t -> ?start:Time.t -> (t -> unit) -> handle
  val cancel : handle -> unit
  val step : t -> bool
  val run : ?until:Time.t -> t -> unit
  val pending : t -> int
  val events_processed : t -> int

  val counters : t -> int * int * int
  (** scheduled, fired, cancelled *)
end

module Wheel : ENGINE = struct
  include Engine

  let create () = Engine.create ()

  let counters e =
    ( engine_counter e "scheduled",
      engine_counter e "fired",
      engine_counter e "cancelled" )
end

module Model : ENGINE = struct
  module Q = Map.Make (struct
    type t = int * int (* at, seq *)

    let compare (a1, s1) (a2, s2) =
      match Int.compare a1 a2 with 0 -> Int.compare s1 s2 | c -> c
  end)

  type t = {
    mutable clock : Time.t;
    mutable queue : handle Q.t;
    mutable seq : int;
    mutable processed : int;
    mutable scheduled : int;
    mutable cancelled : int;
  }

  and handle = {
    owner : t;
    fire : t -> unit;
    period : int; (* -1: one-shot *)
    mutable alive : bool;
    mutable key : (int * int) option; (* queued at this (at, seq) *)
  }

  let create () =
    { clock = 0; queue = Q.empty; seq = 0; processed = 0; scheduled = 0; cancelled = 0 }

  let push m h at =
    let key = (at, m.seq) in
    m.seq <- m.seq + 1;
    m.queue <- Q.add key h m.queue;
    m.scheduled <- m.scheduled + 1;
    h.key <- Some key

  let arm m ~period ~at fire =
    let h = { owner = m; fire; period; alive = true; key = None } in
    push m h at;
    h

  let schedule m ~at f =
    if at < m.clock then invalid_arg "Model.schedule: in the past";
    ignore (arm m ~period:(-1) ~at f : handle)

  let every m ~period ?start f =
    arm m ~period ~at:(Option.value start ~default:(Time.add m.clock period)) f

  let cancel h =
    if h.alive then begin
      h.alive <- false;
      Option.iter
        (fun key ->
          h.owner.queue <- Q.remove key h.owner.queue;
          h.owner.cancelled <- h.owner.cancelled + 1;
          h.key <- None)
        h.key
    end

  let step_until m horizon =
    match Q.min_binding_opt m.queue with
    | Some (((at, _) as key), h) when at <= horizon ->
      m.queue <- Q.remove key m.queue;
      h.key <- None;
      m.clock <- at;
      m.processed <- m.processed + 1;
      h.fire m;
      if h.period >= 0 && h.alive then push m h (Time.add at h.period);
      true
    | _ -> false

  let step m = step_until m Time.infinity
  let run ?(until = Time.infinity) m = while step_until m until do () done
  let now m = m.clock
  let pending m = Q.cardinal m.queue
  let events_processed m = m.processed
  let counters m = (m.scheduled, m.processed, m.cancelled)
end

(* {1 The op language} *)

type op =
  | Schedule of int  (* one-shot at now + offset *)
  | Burst of int * int  (* k one-shots at the same now + offset *)
  | Far of int  (* one-shot at now + 2^40 + offset: overflow level *)
  | Periodic of int * int  (* period, start = now + offset *)
  | Cancel of int  (* cancel the (i mod created)-th periodic handle *)
  | Drain of int  (* run ~until:(now + d) *)
  | Step
  | Drain_all  (* run ~until:(now + 50ms): drains every one-shot *)

let op_to_string = function
  | Schedule o -> Printf.sprintf "Schedule %d" o
  | Burst (k, o) -> Printf.sprintf "Burst (%d, %d)" k o
  | Far o -> Printf.sprintf "Far %d" o
  | Periodic (p, s) -> Printf.sprintf "Periodic (%d, %d)" p s
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Drain d -> Printf.sprintf "Drain %d" d
  | Step -> "Step"
  | Drain_all -> "Drain_all"

(* What the interpreter records: every callback firing (identity and
   clock), and after each op a snapshot of the observable engine state.
   Engine and model agree iff their full traces are equal. *)
type ev =
  | Fired of int * int  (* callback id, clock at firing *)
  | Snap of int * int * int  (* pending, clock, events_processed *)

let run_script (module E : ENGINE) ops =
  let e = E.create () in
  let trace = ref [] in
  (* the handles of every [Periodic] so far, newest first: the only
     events [Cancel] can reach *)
  let hs = ref [] in
  let nhs = ref 0 in
  let fresh = ref 0 in
  let note h =
    hs := h :: !hs;
    incr nhs
  in
  let cb id eng = trace := Fired (id, E.now eng) :: !trace in
  let next_id () =
    let id = !fresh in
    incr fresh;
    id
  in
  let apply = function
    | Schedule off ->
      let at = Time.add (E.now e) off in
      E.schedule e ~at (cb (next_id ()))
    | Burst (k, off) ->
      let at = Time.add (E.now e) off in
      for _ = 1 to k do
        E.schedule e ~at (cb (next_id ()))
      done
    | Far off ->
      let at = Time.add (E.now e) ((1 lsl 40) + off) in
      E.schedule e ~at (cb (next_id ()))
    | Periodic (period, s) ->
      let start = Time.add (E.now e) s in
      note (E.every e ~period ~start (cb (next_id ())))
    | Cancel i -> if !nhs > 0 then E.cancel (List.nth !hs (i mod !nhs))
    | Drain d -> E.run ~until:(Time.add (E.now e) d) e
    | Step -> ignore (E.step e : bool)
    | Drain_all -> E.run ~until:(Time.add (E.now e) (Time.ms 50)) e
  in
  List.iter
    (fun op ->
      apply op;
      trace := Snap (E.pending e, E.now e, E.events_processed e) :: !trace)
    ops;
  (List.rev !trace, E.counters e)

let diff_check name ops =
  check_bool (name ^ ": engine trace = model trace") true
    (run_script (module Wheel) ops = run_script (module Model) ops)

(* {1 Random differential property} *)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun o -> Schedule o) (int_bound 5_000));
        (2, map2 (fun k o -> Burst (2 + k, o)) (int_bound 6) (int_bound 1_000));
        (1, map (fun o -> Far o) (int_bound 1_000));
        ( 2,
          map2
            (fun p s -> Periodic (100 + p, s))
            (int_bound 2_000) (int_bound 1_000) );
        (3, map (fun i -> Cancel i) (int_bound 64));
        (3, map (fun d -> Drain d) (int_bound 10_000));
        (1, return Step);
        (1, return Drain_all);
      ])

let arb_script =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    QCheck.Gen.(list_size (int_bound 40) gen_op)

let prop_engine_matches_model =
  QCheck.Test.make ~name:"random op scripts: engine = model" ~count:250
    arb_script (fun ops ->
      run_script (module Wheel) ops = run_script (module Model) ops)

(* {1 Adversarial scripts} *)

let test_same_us_bursts () =
  diff_check "interleaved same-µs bursts"
    [
      Burst (64, 100);
      Burst (64, 100);
      Schedule 100;
      Drain 1_000;
      Burst (32, 0);
      Drain_all;
    ]

(* Only periodic events have handles. The first handle fires, then is
   cancelled three times: the first cancel voids its re-armed firing,
   the other two are inert. The third handle is cancelled before its
   first firing; the second keeps firing. *)
let test_cancel_after_fired () =
  diff_check "cancelling an already-fired handle is inert"
    [
      Periodic (10_000, 10);
      Drain 100;
      Cancel 0;
      Cancel 0;
      Periodic (10_000, 5);
      Schedule 5;
      Drain 100;
      Cancel 1;
      Periodic (10_000, 50);
      Cancel 0;
      Schedule 50;
      Drain_all;
    ]

let test_far_future_events () =
  (* Beyond the top wheel horizon (2^26 µs): park in overflow, pull
     back in via the rescan, fire in insertion order. *)
  diff_check "far-future events cross the overflow level"
    [
      Far 5;
      Far 5;
      Schedule 7;
      Drain ((1 lsl 40) + 1_000_000);
      Schedule 3;
      Drain_all;
    ]

let test_rewind_after_horizon () =
  (* run ~until leaves the wheel cursor at the horizon; a later
     schedule lands behind it and must rewind, not be lost. *)
  diff_check "schedule behind the cursor after a bounded run"
    [
      Schedule 5_000;
      Drain 10_000;
      Schedule 100;
      Schedule 50;
      Drain 10_000;
      Burst (8, 1);
      Drain_all;
    ]

(* Thirteen periodic handles, four of them cancelled before their
   first firing (Cancel 13 wraps to handle 0), two more once the
   survivors have fired, among one-shot bursts at the same instants. *)
let test_cancel_storm_differential () =
  let periodics k = List.init k (fun _ -> Periodic (400, 500)) in
  diff_check "mass cancellation"
    ([ Burst (7, 500); Periodic (250, 100) ]
    @ periodics 6
    @ [ Burst (7, 500) ]
    @ periodics 6
    @ [
        Cancel 3;
        Cancel 5;
        Cancel 8;
        Cancel 13;
        Drain 2_000;
        Cancel 0;
        Cancel 1;
        Drain_all;
      ])

let test_schedule_at_infinity () =
  let run (module E : ENGINE) =
    let e = E.create () in
    let fired = ref [] in
    E.schedule e ~at:Time.infinity (fun e -> fired := E.now e :: !fired);
    E.schedule e ~at:(Time.ms 1) (fun e -> fired := E.now e :: !fired);
    E.run e;
    (List.rev !fired, E.now e, E.pending e)
  in
  let w = run (module Wheel) in
  check_bool "infinity-scheduled events drain as in the model" true
    (w = run (module Model));
  let times, clock, pending = w in
  check_bool "fires at infinity" true (times = [ Time.ms 1; Time.infinity ]);
  check_int "clock at infinity" Time.infinity clock;
  check_int "nothing pending" 0 pending

let test_periodic_cancels_itself () =
  (* Cancellation from inside the handle's own callback: nothing is
     queued at that moment, and the re-arm must not queue anything. *)
  let run (module E : ENGINE) =
    let e = E.create () in
    let n = ref 0 in
    let h = ref None in
    h :=
      Some
        (E.every e ~period:(Time.ms 1) (fun _ ->
             incr n;
             if !n = 3 then E.cancel (Option.get !h)));
    E.run ~until:(Time.ms 10) e;
    (!n, E.pending e, E.now e, E.events_processed e, E.counters e)
  in
  let w = run (module Wheel) in
  check_bool "self-cancel matches the model" true (w = run (module Model));
  let n, pending, clock, processed, _ = w in
  check_int "fires exactly thrice" 3 n;
  check_int "nothing pending after self-cancel" 0 pending;
  check_int "clock at last firing" (Time.ms 3) clock;
  check_int "three events processed" 3 processed

let test_million_event_drain () =
  (* Stack safety and exactness at depth: schedule 1M one-shots over a
     ~1s spread, drain completely. Every loop in the wheel (seek hops,
     cascades, rescans, slot walks) must be iterative. *)
  let n = 1_000_000 in
  let e = Engine.create () in
  let fired = ref 0 in
  let last = ref (-1) in
  let mono = ref true in
  for i = 1 to n do
    Engine.schedule e
         ~at:(i * 7919 mod 1_000_003)
         (fun e ->
           incr fired;
           if Engine.now e < !last then mono := false;
           last := Engine.now e)
  done;
  check_int "1M pending" n (Engine.pending e);
  Engine.run e;
  check_int "all fired" n !fired;
  check_int "all processed" n (Engine.events_processed e);
  check_bool "nondecreasing firing times" true !mono;
  check_int "queue empty" 0 (Engine.pending e)

let test_deep_differential_drain () =
  (* Same shape against the model, at a depth its map affords. *)
  let n = 50_000 in
  let run (module E : ENGINE) =
    let e = E.create () in
    let acc = ref 0 in
    for i = 1 to n do
      E.schedule e
           ~at:(i * 7919 mod 100_003)
           (fun e -> acc := (!acc * 31) + E.now e)
    done;
    E.run e;
    (!acc, E.events_processed e, E.now e)
  in
  check_bool "50k-event drain matches the model" true
    (run (module Wheel) = run (module Model))

(* {1 Allocation diet and the cancelled-fraction fix} *)

let test_periodic_steady_state_allocates_nothing () =
  let e = Engine.create () in
  ignore (Engine.every e ~period:(Time.ms 1) (fun _ -> ()));
  Engine.run ~until:(Time.ms 1_000) e;
  check_int "1000 firings" 1_000 (Engine.events_processed e);
  check_int "one cell ever allocated" 1 (engine_counter e "cells");
  check_int "every re-arm reused the recycled cell" 1_000
    (engine_counter e "pool-reuse");
  check_int "pushes reconcile with cells + reuse"
    (engine_counter e "scheduled")
    (engine_counter e "cells" + engine_counter e "pool-reuse")

(* The earlier heap-based engine walked cancelled events through the
   heap until compaction; at 90% cancelled the bench showed
   per-live-event cost *rising* with depth. The wheel unlinks on cancel and returns the
   cell to its pool at once — so right after the storm, rescheduling as
   many events as were cancelled is served entirely from the pool. *)
let test_cancelled_fraction_leaves_no_residue () =
  let n = 10_000 in
  let e = Engine.create () in
  (* periodic handles, cancelled before their first firing; the period
     outlasts the run, so a survivor fires once and re-arms once *)
  let period = 1 lsl 40 in
  let hs = Array.init n (fun i -> Engine.every e ~period ~start:(i + 1) (fun _ -> ())) in
  check_int "one fresh cell per event" n (engine_counter e "cells");
  for i = 0 to n - 1 do
    if i mod 10 <> 0 then Engine.cancel hs.(i)
  done;
  let cancelled = n - (n / 10) in
  check_int "live count drops" (n / 10) (Engine.pending e);
  check_int "voided firings counted" cancelled (engine_counter e "cancelled");
  for i = 1 to cancelled do
    Engine.schedule e ~at:(n + i) (fun _ -> ())
  done;
  check_int "cancelled cells went straight back to the pool" n
    (engine_counter e "cells");
  check_int "every reschedule reused a cancelled cell" cancelled
    (engine_counter e "pool-reuse");
  Engine.run ~until:(n + cancelled) e;
  check_int "only live events fired" (n / 10 + cancelled)
    (Engine.events_processed e);
  check_int "survivors re-armed" (n / 10) (Engine.pending e);
  Array.iter Engine.cancel hs;
  check_int "drained" 0 (Engine.pending e)

(* The cell of a firing event is recycled before its callback runs, so
   a callback that schedules at its own instant takes that very cell
   back. Such events must fire after every event already queued for
   the instant (including the other callbacks' re-schedules, in the
   order those were made), and chained re-schedules at one instant run
   to completion before time moves on. *)
let test_reschedule_at_own_instant () =
  let run (module E : ENGINE) =
    let e = E.create () in
    let log = ref [] in
    let rec chain id k eng =
      log := (id, k, E.now eng) :: !log;
      if k > 0 then E.schedule eng ~at:(E.now eng) (chain id (k - 1))
    in
    for id = 0 to 3 do
      E.schedule e ~at:(Time.us 10) (chain id 2)
    done;
    E.schedule e ~at:(Time.us 11) (chain 4 1);
    ignore (E.every e ~period:(Time.us 5) ~start:(Time.us 10) (chain 5 1) : E.handle);
    E.run ~until:(Time.us 20) e;
    (List.rev !log, E.pending e, E.counters e)
  in
  let w = run (module Wheel) in
  check_bool "same-instant re-schedules match the model" true (w = run (module Model));
  let log, _, _ = w in
  Alcotest.(check (list (triple int int int)))
    "first round in insertion order, then the re-schedules"
    [ (0, 2, 10); (1, 2, 10); (2, 2, 10); (3, 2, 10); (5, 1, 10) ]
    (List.filteri (fun i _ -> i < 5) log)

(* {1 End-to-end bytes} *)

(* The campaign verdict fingerprint, pinned: the value the retired
   heap-based engine produced too, so any change to firing order
   anywhere in the stack shows up here. *)
let test_campaign_fingerprint_pinned () =
  let r = Campaign.run ~jobs:1 (Campaign.spec ~trials:25 ~seed:7 ()) in
  Alcotest.(check string) "25 trials, seed 7" "4842c45bec9a8e57"
    (Campaign.fingerprint r)

(* A full-stack scenario (detection, evidence flooding, a mode switch):
   the sim.engine.* counters must reconcile exactly, and every push is
   accounted to either a fresh cell or a pooled one. *)
let test_scenario_engine_counters_reconcile () =
  let obs = Obs.create () in
  match Scenario.run (Scenario.avionics_demo ~obs ()) with
  | Error _ -> Alcotest.fail "avionics demo must deploy"
  | Ok rt ->
    let e = Btr.Runtime.engine rt in
    let scheduled = engine_counter e "scheduled"
    and cells = engine_counter e "cells"
    and reuse = engine_counter e "pool-reuse" in
    check_int "scheduled = fired + cancelled + pending" scheduled
      (engine_counter e "fired" + engine_counter e "cancelled" + Engine.pending e);
    check_int "every push is a fresh or pooled cell" scheduled (cells + reuse);
    check_bool "steady-state periodic load reuses cells" true (reuse > cells)

let suite =
  [
    ("same-µs bursts", `Quick, test_same_us_bursts);
    ("cancel of fired handle", `Quick, test_cancel_after_fired);
    ("far-future via overflow level", `Quick, test_far_future_events);
    ("rewind after bounded run", `Quick, test_rewind_after_horizon);
    ("mass cancellation", `Quick, test_cancel_storm_differential);
    ("events at Time.infinity", `Quick, test_schedule_at_infinity);
    ("periodic cancels itself", `Quick, test_periodic_cancels_itself);
    ("1M-event drain is exact and stack-safe", `Quick, test_million_event_drain);
    ("50k-event drain differential", `Quick, test_deep_differential_drain);
    ( "steady-state periodic allocates nothing",
      `Quick,
      test_periodic_steady_state_allocates_nothing );
    ( "cancelled events leave no residue",
      `Quick,
      test_cancelled_fraction_leaves_no_residue );
    ("re-schedule at the firing instant", `Quick, test_reschedule_at_own_instant);
    ("campaign fingerprint pinned", `Quick, test_campaign_fingerprint_pinned);
    ( "scenario engine counters reconcile",
      `Quick,
      test_scenario_engine_counters_reconcile );
    QCheck_alcotest.to_alcotest prop_engine_matches_model;
  ]
