open Btr_util
module Engine = Btr_sim.Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_schedule_order () =
  let e = Engine.create () in
  let order = ref [] in
  let note tag _ = order := tag :: !order in
  Engine.schedule e ~at:(Time.ms 5) (note "b");
  Engine.schedule e ~at:(Time.ms 1) (note "a");
  Engine.schedule e ~at:(Time.ms 9) (note "c");
  Engine.run e;
  Alcotest.(check (list string)) "fires in time order" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_fifo_at_same_time () =
  let e = Engine.create () in
  let order = ref [] in
  let note tag _ = order := tag :: !order in
  Engine.schedule e ~at:(Time.ms 1) (note "first");
  Engine.schedule e ~at:(Time.ms 1) (note "second");
  Engine.schedule e ~at:(Time.ms 1) (note "third");
  Engine.run e;
  Alcotest.(check (list string)) "insertion order breaks ties"
    [ "first"; "second"; "third" ] (List.rev !order)

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref Time.zero in
  Engine.schedule e ~at:(Time.ms 3) (fun e -> seen := Engine.now e);
  Engine.run e;
  check_int "clock at event time" (Time.ms 3) !seen;
  check_int "clock stays" (Time.ms 3) (Engine.now e)

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:(Time.ms 5) (fun _ -> ());
  Engine.run e;
  Alcotest.check_raises "past schedule"
    (Invalid_argument "Engine.schedule: at=1ms is before now=5ms") (fun () ->
      Engine.schedule e ~at:(Time.ms 1) (fun _ -> ()))

(* Only periodic events have handles: one cancelled before its first
   firing never fires. *)
let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.every e ~period:(Time.ms 2) (fun _ -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  check_bool "cancelled event skipped" false !fired;
  check_int "not counted as processed" 0 (Engine.events_processed e)

let test_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  List.iter
    (fun t -> Engine.schedule e ~at:t (fun _ -> incr count))
    [ Time.ms 1; Time.ms 2; Time.ms 3 ];
  Engine.run ~until:(Time.ms 2) e;
  check_int "only events <= until" 2 !count;
  check_int "rest still pending" 1 (Engine.pending e);
  Engine.run e;
  check_int "drains on resume" 3 !count

let test_periodic () =
  let e = Engine.create () in
  let times = ref [] in
  let h = Engine.every e ~period:(Time.ms 10) (fun e -> times := Engine.now e :: !times) in
  Engine.schedule e ~at:(Time.ms 35) (fun _ -> Engine.cancel h);
  Engine.run ~until:(Time.ms 100) e;
  Alcotest.(check (list int)) "fires each period until cancelled"
    [ Time.ms 10; Time.ms 20; Time.ms 30 ] (List.rev !times)

let test_periodic_start () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.every e ~period:(Time.ms 10) ~start:Time.zero (fun e ->
         times := Engine.now e :: !times));
  Engine.run ~until:(Time.ms 25) e;
  Alcotest.(check (list int)) "explicit start" [ 0; Time.ms 10; Time.ms 20 ]
    (List.rev !times)

let test_nested_scheduling () =
  let e = Engine.create () in
  let hits = ref [] in
  Engine.schedule e ~at:(Time.ms 1) (fun e ->
      Engine.schedule_in e ~delay:(Time.ms 4) (fun e -> hits := Engine.now e :: !hits));
  Engine.run e;
  Alcotest.(check (list int)) "event scheduled from event" [ Time.ms 5 ] !hits

let test_determinism () =
  let run_once () =
    let e = Engine.create ~seed:99 () in
    let log = ref [] in
    for i = 1 to 50 do
      let delay = Time.us (Rng.int (Engine.rng e) 10_000) in
      Engine.schedule e ~at:delay (fun e -> log := (i, Engine.now e) :: !log)
    done;
    Engine.run e;
    !log
  in
  check_bool "same seed, same execution" true (run_once () = run_once ())

let test_obs_run_events () =
  let obs = Btr_obs.Obs.with_memory () in
  let e = Engine.create ~obs () in
  Engine.schedule e ~at:(Time.ms 1) (fun _ -> ());
  Engine.run ~until:(Time.ms 2) e;
  match Btr_obs.Obs.events obs with
  | [ started; finished ] ->
    check_bool "run started first"
      (started.Btr_obs.Obs.payload = Btr_obs.Obs.Run_started { until = Time.ms 2 })
      true;
    check_bool "run finished with event count"
      (finished.Btr_obs.Obs.payload = Btr_obs.Obs.Run_finished { events = 1 })
      true
  | l -> Alcotest.failf "expected two events, got %d" (List.length l)

let test_obs_default_disabled () =
  let e = Engine.create () in
  check_bool "default context records nothing" false
    (Btr_obs.Obs.enabled (Engine.obs e));
  Engine.schedule e ~at:(Time.ms 1) (fun _ -> ());
  Engine.run e;
  check_int "no events retained" 0
    (List.length (Btr_obs.Obs.events (Engine.obs e)))

(* The leak the `every` rewrite fixed: cancelling a periodic handle must
   also drop the already-armed next firing from the queue. *)
let test_periodic_cancel_drops_pending () =
  let e = Engine.create () in
  let h = Engine.every e ~period:(Time.ms 10) (fun _ -> ()) in
  Engine.schedule e ~at:(Time.ms 15) (fun _ -> Engine.cancel h);
  Engine.run ~until:(Time.ms 15) e;
  check_int "armed firing no longer pending" 0 (Engine.pending e)

(* pending is a live-event counter, not an O(n) fold; it must stay
   exact across cancel-heavy periodic workloads — every alive [every]
   handle keeps exactly one armed firing queued, and cancellation voids
   it immediately. *)
let test_pending_exact_under_cancel_storm () =
  let e = Engine.create () in
  let n = 512 in
  let hs =
    Array.init n (fun i ->
        Engine.every e ~period:(Time.ms ((i mod 9) + 1)) (fun _ -> ()))
  in
  check_int "one armed firing per periodic" n (Engine.pending e);
  for i = 0 to n - 1 do
    if i mod 4 <> 0 then Engine.cancel hs.(i)
  done;
  check_int "cancel voids armed firings immediately" (n / 4) (Engine.pending e);
  (* double-cancel must not double-count *)
  for i = 0 to n - 1 do
    if i mod 4 <> 0 then Engine.cancel hs.(i)
  done;
  check_int "cancel is idempotent" (n / 4) (Engine.pending e);
  Engine.run ~until:(Time.ms 50) e;
  check_int "survivors re-arm exactly one firing each" (n / 4) (Engine.pending e);
  Engine.schedule e ~at:(Time.ms 60) (fun _ -> Array.iter Engine.cancel hs);
  Engine.run ~until:(Time.ms 70) e;
  check_int "mid-run mass cancel drains pending to zero" 0 (Engine.pending e);
  check_bool "cancelled backlog never fires" true (Engine.events_processed e > 0)

(* A one-shot event is one pooled wheel cell and nothing else: once the
   pool and the wheel's slot sentinels are warm (a full 8192-µs level-0
   window), scheduling one and firing it allocates nothing. The
   callback is allocated once, outside the measured loop. *)
let test_oneshot_allocates_nothing () =
  let e = Engine.create () in
  let fired = ref 0 in
  let cb _ = incr fired in
  let once () =
    Engine.schedule_in e ~delay:1 cb;
    Engine.run e
  in
  for _ = 1 to 8192 do
    once ()
  done;
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    once ()
  done;
  let words = Gc.minor_words () -. before in
  check_int "every event fired" (8192 + n) !fired;
  if words > 0.0 then
    Alcotest.failf "%d warm one-shot events allocated %.0f minor words (> 0)" n words

let prop_events_fire_in_order =
  QCheck.Test.make ~name:"random events always fire in nondecreasing time order"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 100_000))
    (fun delays ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun d ->
          Engine.schedule e ~at:d (fun e -> fired := Engine.now e :: !fired))
        delays;
      Engine.run e;
      let ts = List.rev !fired in
      List.length ts = List.length delays
      && List.for_all2 Time.equal ts (List.sort Int.compare delays))

let suite =
  [
    ("events fire in time order", `Quick, test_schedule_order);
    ("same-time events are FIFO", `Quick, test_fifo_at_same_time);
    ("clock advances to event time", `Quick, test_clock_advances);
    ("scheduling in the past is rejected", `Quick, test_schedule_in_past_rejected);
    ("cancelled events are skipped", `Quick, test_cancel);
    ("run ~until stops at horizon", `Quick, test_run_until);
    ("periodic events fire and cancel", `Quick, test_periodic);
    ("periodic with explicit start", `Quick, test_periodic_start);
    ("events can schedule events", `Quick, test_nested_scheduling);
    ("execution is deterministic per seed", `Quick, test_determinism);
    ("obs records run start/finish", `Quick, test_obs_run_events);
    ("obs disabled by default", `Quick, test_obs_default_disabled);
    ("periodic cancel drops armed firing", `Quick, test_periodic_cancel_drops_pending);
    ( "pending exact under cancel storm (wheel)",
      `Quick,
      test_pending_exact_under_cancel_storm );
    ("a warm one-shot event allocates nothing", `Quick, test_oneshot_allocates_nothing);
    QCheck_alcotest.to_alcotest prop_events_fire_in_order;
  ]
