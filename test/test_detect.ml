open Btr_util
module Detect = Btr_detect.Detect
module Evidence = Btr_evidence.Evidence

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_path_admissibility () =
  let s accused =
    {
      Evidence.accused;
      fault_class = Evidence.Omission;
      detector = 2;
      period = 0;
      detected_at = 0;
      detail = "";
    }
  in
  check_bool "own path ok" true
    (Detect.path_statement_admissible (s (Evidence.path 2 5)));
  check_bool "own path ok (other end)" true
    (Detect.path_statement_admissible (s (Evidence.path 5 2)));
  check_bool "third-party path rejected" false
    (Detect.path_statement_admissible (s (Evidence.path 4 5)));
  check_bool "node accusations unaffected" true
    (Detect.path_statement_admissible (s (Evidence.Node 9)))

(* Watchdog *)

let test_watchdog_on_time () =
  let w = Detect.Watchdog.create ~node:1 ~margin:(Time.ms 1) () in
  Detect.Watchdog.expect w ~flow:7 ~period:0 ~from_node:3 ~deadline:(Time.ms 10);
  check_bool "on-time arrival is quiet" true
    (Detect.Watchdog.note_arrival w ~flow:7 ~period:0 ~at:(Time.ms 9) = None);
  Alcotest.(check (list (triple int int int)))
    "nothing overdue" []
    (Detect.Watchdog.overdue w ~now:(Time.ms 100))

let test_watchdog_late () =
  let w = Detect.Watchdog.create ~node:1 ~margin:(Time.ms 1) () in
  Detect.Watchdog.expect w ~flow:7 ~period:0 ~from_node:3 ~deadline:(Time.ms 10);
  match Detect.Watchdog.note_arrival w ~flow:7 ~period:0 ~at:(Time.ms 14) with
  | Some l ->
    check_int "from node" 3 l.Detect.Watchdog.from_node;
    check_int "lateness beyond margin" (Time.ms 3) l.Detect.Watchdog.lateness
  | None -> Alcotest.fail "expected lateness"

let test_watchdog_margin_absorbs () =
  let w = Detect.Watchdog.create ~node:1 ~margin:(Time.ms 2) () in
  Detect.Watchdog.expect w ~flow:7 ~period:0 ~from_node:3 ~deadline:(Time.ms 10);
  check_bool "within margin" true
    (Detect.Watchdog.note_arrival w ~flow:7 ~period:0 ~at:(Time.ms 11) = None)

let test_watchdog_overdue_once () =
  let w = Detect.Watchdog.create ~node:1 ~margin:(Time.ms 1) () in
  Detect.Watchdog.expect w ~flow:7 ~period:0 ~from_node:3 ~deadline:(Time.ms 10);
  Detect.Watchdog.expect w ~flow:8 ~period:0 ~from_node:4 ~deadline:(Time.ms 10);
  check_bool "not due before deadline" true
    (Detect.Watchdog.overdue w ~now:(Time.ms 10) = []);
  check_int "both overdue" 2 (List.length (Detect.Watchdog.overdue w ~now:(Time.ms 12)));
  check_int "reported once" 0 (List.length (Detect.Watchdog.overdue w ~now:(Time.ms 20)))

let test_watchdog_unexpected_arrival () =
  let w = Detect.Watchdog.create ~node:1 ~margin:Time.zero () in
  check_bool "unknown flow ignored" true
    (Detect.Watchdog.note_arrival w ~flow:99 ~period:0 ~at:(Time.ms 1) = None)

let test_watchdog_expect_idempotent () =
  let w = Detect.Watchdog.create ~node:1 ~margin:Time.zero () in
  Detect.Watchdog.expect w ~flow:1 ~period:0 ~from_node:2 ~deadline:(Time.ms 5);
  Detect.Watchdog.expect w ~flow:1 ~period:0 ~from_node:9 ~deadline:(Time.ms 50);
  match Detect.Watchdog.overdue w ~now:(Time.ms 10) with
  | [ (1, 0, 2) ] -> ()
  | l -> Alcotest.failf "expected the first registration, got %d entries" (List.length l)

let test_watchdog_strikes () =
  let w = Detect.Watchdog.create ~node:1 ~margin:Time.zero ~strikes:3 () in
  let miss flow =
    Detect.Watchdog.expect w ~flow ~period:0 ~from_node:7 ~deadline:(Time.ms 10);
    Detect.Watchdog.overdue w ~now:(Time.ms 20)
  in
  Alcotest.(check (list (triple int int int))) "first miss silent" [] (miss 1);
  Alcotest.(check (list (triple int int int))) "second miss silent" [] (miss 2);
  Alcotest.(check (list (triple int int int)))
    "third strike reports" [ (3, 0, 7) ] (miss 3);
  Alcotest.(check (list (triple int int int)))
    "and keeps reporting afterwards" [ (4, 0, 7) ] (miss 4)

let test_watchdog_strikes_per_sender () =
  let w = Detect.Watchdog.create ~node:1 ~margin:Time.zero ~strikes:2 () in
  Detect.Watchdog.expect w ~flow:1 ~period:0 ~from_node:7 ~deadline:(Time.ms 1);
  Detect.Watchdog.expect w ~flow:2 ~period:0 ~from_node:8 ~deadline:(Time.ms 1);
  check_bool "one miss each: nobody reported" true
    (Detect.Watchdog.overdue w ~now:(Time.ms 5) = []);
  Detect.Watchdog.expect w ~flow:1 ~period:1 ~from_node:7 ~deadline:(Time.ms 11);
  Alcotest.(check (list (triple int int int)))
    "7 crosses its own threshold" [ (1, 1, 7) ]
    (Detect.Watchdog.overdue w ~now:(Time.ms 15))

(* Strike accounts: cross-path sharing, once-per-sweep bumps, resets *)

let declared_of l =
  List.filter (fun (m : Detect.Watchdog.miss) -> m.Detect.Watchdog.declared) l

let test_strikes_shared_across_paths () =
  (* The account is per sender, not per flow: misses on different flows
     from the same sender accumulate — exactly what the old per-path
     counter failed to do for selective omission (a sender starving k
     different watcher paths never gave any single path [strikes]
     consecutive misses). *)
  let w = Detect.Watchdog.create ~node:1 ~margin:Time.zero ~strikes:2 () in
  Detect.Watchdog.expect w ~flow:1 ~period:0 ~from_node:7 ~deadline:(Time.ms 10);
  check_bool "first path miss sub-threshold" true
    (declared_of (Detect.Watchdog.sweep w ~now:(Time.ms 11)) = []);
  Detect.Watchdog.expect w ~flow:2 ~period:1 ~from_node:7 ~deadline:(Time.ms 20);
  match Detect.Watchdog.sweep w ~now:(Time.ms 21) with
  | [ m ] ->
    check_int "the second miss is on a different flow" 2 m.Detect.Watchdog.miss_flow;
    check_int "but the shared account reached the threshold" 2
      m.Detect.Watchdog.account;
    check_bool "declared" true m.Detect.Watchdog.declared
  | l -> Alcotest.failf "expected one miss, got %d" (List.length l)

let test_strike_bumped_once_per_sweep () =
  (* Many flows missing in the same sweep are one observation of the
     sender, not several: the account must not jump straight to the
     threshold on a single bad period. *)
  let w = Detect.Watchdog.create ~node:1 ~margin:Time.zero ~strikes:2 () in
  Detect.Watchdog.expect w ~flow:1 ~period:0 ~from_node:7 ~deadline:(Time.ms 10);
  Detect.Watchdog.expect w ~flow:2 ~period:0 ~from_node:7 ~deadline:(Time.ms 10);
  match Detect.Watchdog.sweep w ~now:(Time.ms 11) with
  | [ a; b ] ->
    check_int "account bumped once" 1 a.Detect.Watchdog.account;
    check_int "same account on both misses" 1 b.Detect.Watchdog.account;
    check_bool "neither declared" true (declared_of [ a; b ] = [])
  | l -> Alcotest.failf "expected two misses, got %d" (List.length l)

let test_strike_reset_on_timely_arrival () =
  (* Monotonicity fix: interleaving sporadic losses with long healthy
     stretches must never accumulate into a declaration, because every
     timely arrival resets the sender's account; a genuine outage of
     [strikes] consecutive periods still declares. *)
  let w = Detect.Watchdog.create ~node:1 ~margin:Time.zero ~strikes:3 () in
  let deadline p = Time.ms (10 * (p + 1)) in
  let sweep_at p =
    Detect.Watchdog.sweep w ~now:(Time.add (deadline p) (Time.ms 1))
  in
  (* 30 periods losing every third message: 10 losses, none declared. *)
  for p = 0 to 29 do
    Detect.Watchdog.expect w ~flow:1 ~period:p ~from_node:7 ~deadline:(deadline p);
    if p mod 3 = 0 then
      check_bool "sporadic loss stays sub-threshold" true
        (declared_of (sweep_at p) = [])
    else begin
      ignore (Detect.Watchdog.note_arrival w ~flow:1 ~period:p ~at:(deadline p));
      check_int "timely arrival resets the account" 0
        (Detect.Watchdog.account w ~from_node:7);
      ignore (sweep_at p)
    end
  done;
  (* A real outage: three consecutive misses cross the threshold. *)
  for p = 30 to 32 do
    Detect.Watchdog.expect w ~flow:1 ~period:p ~from_node:7 ~deadline:(deadline p);
    let d = declared_of (sweep_at p) in
    if p < 32 then check_bool "first two strikes silent" true (d = [])
    else
      match d with
      | [ m ] ->
        check_int "declared against sender 7" 7 m.Detect.Watchdog.miss_from;
        check_int "account equals the threshold" 3 m.Detect.Watchdog.account
      | l -> Alcotest.failf "expected one declaration, got %d" (List.length l)
  done

(* Corroboration *)

let test_corroboration_quorum_once () =
  let a = Detect.Attribution.create ~window:4 ~threshold:2 () in
  Alcotest.(check (list int))
    "first watcher alone" []
    (Detect.Attribution.note_suspicion a ~sender:7 ~watcher:1 ~period:0);
  check_bool "not yet corroborated" false
    (Detect.Attribution.is_corroborated a ~sender:7);
  Alcotest.(check (list int))
    "second watcher completes the quorum" [ 1; 2 ]
    (Detect.Attribution.note_suspicion a ~sender:7 ~watcher:2 ~period:2);
  check_bool "corroborated" true (Detect.Attribution.is_corroborated a ~sender:7);
  Alcotest.(check (list int))
    "fires exactly once" []
    (Detect.Attribution.note_suspicion a ~sender:7 ~watcher:3 ~period:2)

let test_corroboration_window_ages_out () =
  (* Two glitches ten periods apart describe different outages; only
     observations within the window corroborate each other. *)
  let a = Detect.Attribution.create ~window:4 ~threshold:2 () in
  ignore (Detect.Attribution.note_suspicion a ~sender:7 ~watcher:1 ~period:0);
  Alcotest.(check (list int))
    "stale suspicion does not corroborate" []
    (Detect.Attribution.note_suspicion a ~sender:7 ~watcher:2 ~period:10);
  Alcotest.(check (list int))
    "a fresh pair does" [ 2; 3 ]
    (Detect.Attribution.note_suspicion a ~sender:7 ~watcher:3 ~period:12)

let test_corroboration_needs_distinct_watchers () =
  let a = Detect.Attribution.create ~window:8 ~threshold:2 () in
  ignore (Detect.Attribution.note_suspicion a ~sender:7 ~watcher:1 ~period:0);
  ignore (Detect.Attribution.note_suspicion a ~sender:7 ~watcher:1 ~period:1);
  Alcotest.(check (list int))
    "one watcher repeating is not a quorum" []
    (Detect.Attribution.note_suspicion a ~sender:7 ~watcher:1 ~period:2);
  check_bool "not corroborated" false
    (Detect.Attribution.is_corroborated a ~sender:7)

(* Attribution *)

let test_attribution_threshold () =
  let a = Detect.Attribution.create ~threshold:2 () in
  Alcotest.(check (list int)) "one path: nobody" [] (Detect.Attribution.note_path a ~a:4 ~b:1);
  Alcotest.(check (list int))
    "second distinct counterpart attributes node 4" [ 4 ]
    (Detect.Attribution.note_path a ~a:4 ~b:2);
  check_bool "attributed" true (Detect.Attribution.is_attributed a 4);
  check_bool "counterparties tracked" true
    (List.sort Int.compare (Detect.Attribution.counterparties a 4) = [ 1; 2 ])

let test_attribution_duplicate_paths_dont_count () =
  let a = Detect.Attribution.create ~threshold:2 () in
  ignore (Detect.Attribution.note_path a ~a:4 ~b:1);
  ignore (Detect.Attribution.note_path a ~a:4 ~b:1);
  ignore (Detect.Attribution.note_path a ~a:1 ~b:4);
  check_bool "same path repeated never attributes" false
    (Detect.Attribution.is_attributed a 4)

let test_attribution_no_false_positive_with_threshold_f1 () =
  (* f = 1, threshold 2: a correct node facing one faulty counterpart
     never crosses the threshold, however many declarations repeat. *)
  let a = Detect.Attribution.create ~threshold:2 () in
  for _ = 1 to 10 do
    ignore (Detect.Attribution.note_path a ~a:0 ~b:9)
  done;
  check_bool "victim safe" false (Detect.Attribution.is_attributed a 0);
  check_bool "attacker not yet attributable either" false
    (Detect.Attribution.is_attributed a 9);
  (* The attacker omits toward a second counterpart: now it crosses. *)
  Alcotest.(check (list int)) "attacker attributed" [ 9 ]
    (Detect.Attribution.note_path a ~a:1 ~b:9)

let test_attribution_order_deterministic () =
  (* [attributed] reports nodes in first-attribution order, independent
     of the endpoint order inside each declaration — artifact diffs and
     eviction decisions must not depend on who declared first. *)
  let go order =
    let a = Detect.Attribution.create ~threshold:2 () in
    List.iter
      (fun (x, y) -> ignore (Detect.Attribution.note_path a ~a:x ~b:y))
      order;
    Detect.Attribution.attributed a
  in
  Alcotest.(check (list int)) "9 attributed before 5" [ 9; 5 ]
    (go [ (9, 1); (9, 2); (5, 3); (5, 4) ]);
  Alcotest.(check (list int)) "endpoint order irrelevant" [ 9; 5 ]
    (go [ (1, 9); (2, 9); (3, 5); (4, 5) ])

let test_attribution_counterparties_first_seen () =
  let a = Detect.Attribution.create ~threshold:3 () in
  ignore (Detect.Attribution.note_path a ~a:4 ~b:2);
  ignore (Detect.Attribution.note_path a ~a:1 ~b:4);
  ignore (Detect.Attribution.note_path a ~a:4 ~b:0);
  Alcotest.(check (list int))
    "counterparties in first-seen order" [ 2; 1; 0 ]
    (Detect.Attribution.counterparties a 4)

let test_attribution_reports_each_node_once () =
  let a = Detect.Attribution.create ~threshold:1 () in
  Alcotest.(check (list int)) "both endpoints at threshold 1" [ 4; 1 ]
    (Detect.Attribution.note_path a ~a:4 ~b:1);
  Alcotest.(check (list int))
    "4 not re-reported; its new counterpart 2 crosses threshold 1" [ 2 ]
    (Detect.Attribution.note_path a ~a:4 ~b:2)

let prop_attribution_needs_threshold_distinct =
  QCheck.Test.make
    ~name:"a node is attributed iff it saw >= threshold distinct counterparties"
    ~count:200
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(1 -- 20) (int_bound 5)))
    (fun (threshold, others) ->
      let a = Detect.Attribution.create ~threshold () in
      List.iter (fun b -> ignore (Detect.Attribution.note_path a ~a:100 ~b)) others;
      let distinct = List.length (List.sort_uniq Int.compare others) in
      Detect.Attribution.is_attributed a 100 = (distinct >= threshold))

(* Reference model of the watchdog: the original full-table design,
   which marks expectations met in place and filters the whole sorted
   table on every sweep. The real watchdog only looks at unmet ones. *)
module Watchdog_model = struct
  type e = { from : int; deadline : Time.t; mutable met : bool }

  type t = {
    margin : Time.t;
    strikes : int;
    table : (int * int, e) Hashtbl.t;
    accounts : (int, int) Hashtbl.t;
  }

  let create ~margin ~strikes =
    { margin; strikes; table = Hashtbl.create 16; accounts = Hashtbl.create 4 }

  let account t n = Option.value ~default:0 (Hashtbl.find_opt t.accounts n)

  let expect t ~flow ~period ~from_node ~deadline =
    if not (Hashtbl.mem t.table (flow, period)) then
      Hashtbl.replace t.table (flow, period) { from = from_node; deadline; met = false }

  let note_arrival t ~flow ~period ~at =
    match Hashtbl.find_opt t.table (flow, period) with
    | None -> None
    | Some e ->
      e.met <- true;
      let limit = Time.add e.deadline t.margin in
      if Time.compare at limit > 0 then Some (e.from, Time.sub at limit)
      else (Hashtbl.replace t.accounts e.from 0; None)

  let cmp_key (f1, p1) (f2, p2) =
    match Int.compare f1 f2 with 0 -> Int.compare p1 p2 | c -> c

  let unmet t = List.filter (fun (_, e) -> not e.met) (Table.sorted_bindings ~cmp:cmp_key t.table)

  let sweep t ~now =
    let due =
      List.filter (fun (_, e) -> Time.compare now (Time.add e.deadline t.margin) > 0) (unmet t)
    in
    List.iter
      (fun from -> Hashtbl.replace t.accounts from (account t from + 1))
      (List.sort_uniq Int.compare (List.map (fun (_, e) -> e.from) due));
    List.map
      (fun ((flow, period), e) ->
        e.met <- true;
        let n = account t e.from in
        (flow, period, e.from, n, n >= t.strikes))
      due

  let pending t = List.length (unmet t)
end

type wd_op =
  | Expect of int * int * int * int  (** flow, period, sender, deadline - now *)
  | Arrive of int * int * int  (** flow, period, at - now *)
  | Sweep of int  (** advance the clock, then sweep *)

let gen_wd_op =
  QCheck.Gen.(
    frequency
      [
        (4, map4 (fun f p s d -> Expect (f, p, s, d)) (0 -- 3) (0 -- 3) (0 -- 2) (0 -- 20));
        (3, map3 (fun f p d -> Arrive (f, p, d)) (0 -- 3) (0 -- 3) (0 -- 30));
        (2, map (fun d -> Sweep d) (0 -- 15));
      ])

let print_wd_op = function
  | Expect (f, p, s, d) -> Printf.sprintf "expect %d.%d from %d +%d" f p s d
  | Arrive (f, p, d) -> Printf.sprintf "arrive %d.%d +%d" f p d
  | Sweep d -> Printf.sprintf "sweep +%d" d

(* Sixteen keys and three senders, so random scripts keep re-expecting
   existing keys, repeating arrivals and arriving after a declared miss. *)
let prop_watchdog_matches_model =
  QCheck.Test.make ~name:"watchdog agrees with the full-table model" ~count:300
    QCheck.(
      triple (int_range 1 3) (int_range 0 2)
        (make ~print:(Print.list print_wd_op) Gen.(list_size (0 -- 60) gen_wd_op)))
    (fun (strikes, margin, ops) ->
      let margin = Time.ms margin in
      let w = Detect.Watchdog.create ~node:0 ~margin ~strikes () in
      let m = Watchdog_model.create ~margin ~strikes in
      let now = ref Time.zero in
      let ms d = Time.add !now (Time.ms d) in
      List.for_all
        (fun op ->
          (match op with
          | Expect (flow, period, from_node, d) ->
            Detect.Watchdog.expect w ~flow ~period ~from_node ~deadline:(ms d);
            Watchdog_model.expect m ~flow ~period ~from_node ~deadline:(ms d);
            true
          | Arrive (flow, period, d) ->
            let late =
              Option.map
                (fun (l : Detect.Watchdog.late) ->
                  (l.Detect.Watchdog.from_node, l.Detect.Watchdog.lateness))
                (Detect.Watchdog.note_arrival w ~flow ~period ~at:(ms d))
            in
            late = Watchdog_model.note_arrival m ~flow ~period ~at:(ms d)
          | Sweep d ->
            now := ms d;
            List.map
              (fun (x : Detect.Watchdog.miss) ->
                ( x.Detect.Watchdog.miss_flow,
                  x.miss_period,
                  x.miss_from,
                  x.account,
                  x.declared ))
              (Detect.Watchdog.sweep w ~now:!now)
            = Watchdog_model.sweep m ~now:!now)
          && Detect.Watchdog.pending w = Watchdog_model.pending m
          && List.for_all
               (fun n ->
                 Detect.Watchdog.account w ~from_node:n = Watchdog_model.account m n)
               [ 0; 1; 2 ])
        ops)

let suite =
  [
    ("path admissibility", `Quick, test_path_admissibility);
    ("watchdog: on-time arrivals are quiet", `Quick, test_watchdog_on_time);
    ("watchdog: lateness measured beyond margin", `Quick, test_watchdog_late);
    ("watchdog: margin absorbs jitter", `Quick, test_watchdog_margin_absorbs);
    ("watchdog: overdue reported exactly once", `Quick, test_watchdog_overdue_once);
    ("watchdog: unexpected arrivals ignored", `Quick, test_watchdog_unexpected_arrival);
    ("watchdog: expectations are idempotent", `Quick, test_watchdog_expect_idempotent);
    ("watchdog: strike threshold", `Quick, test_watchdog_strikes);
    ("watchdog: strikes counted per sender", `Quick, test_watchdog_strikes_per_sender);
    ("watchdog: strikes shared across paths", `Quick, test_strikes_shared_across_paths);
    ("watchdog: account bumped once per sweep", `Quick, test_strike_bumped_once_per_sweep);
    ("watchdog: timely arrivals reset the account", `Quick, test_strike_reset_on_timely_arrival);
    ("corroboration: quorum fires exactly once", `Quick, test_corroboration_quorum_once);
    ("corroboration: window ages suspicions out", `Quick, test_corroboration_window_ages_out);
    ("corroboration: needs distinct watchers", `Quick, test_corroboration_needs_distinct_watchers);
    ("attribution: threshold of distinct counterparties", `Quick, test_attribution_threshold);
    ("attribution: duplicates don't count", `Quick, test_attribution_duplicate_paths_dont_count);
    ("attribution: no false positives at f+1", `Quick, test_attribution_no_false_positive_with_threshold_f1);
    ("attribution: reported once", `Quick, test_attribution_reports_each_node_once);
    ("attribution: deterministic order", `Quick, test_attribution_order_deterministic);
    ("attribution: counterparties first-seen", `Quick, test_attribution_counterparties_first_seen);
    QCheck_alcotest.to_alcotest prop_attribution_needs_threshold_distinct;
    QCheck_alcotest.to_alcotest prop_watchdog_matches_model;
  ]
