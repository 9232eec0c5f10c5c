(* The orchestration subsystem: deterministic sharding, resumable runs,
   shard combining and adaptive frontier search. The load-bearing
   property throughout is byte-identity: however a campaign's execution
   is partitioned — shards, worker counts, interrupt-and-resume — the
   canonical artifact is the same bytes. *)

open Btr_util
module Campaign = Btr_campaign.Campaign
module Orchestrate = Btr_campaign.Orchestrate
module Obs = Btr_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let two_axis_grid =
  {
    Campaign.default_grid with
    Campaign.fault_bounds = [ 1; 2 ];
    control_shares = [ None; Some 0.005 ];
  }

let unsharded_lines ?jobs spec =
  match Orchestrate.run ?jobs ~shard:Orchestrate.unsharded spec with
  | Ok r -> r.Orchestrate.lines
  | Error m -> Alcotest.failf "unsharded run failed: %s" m

(* --- sharding -------------------------------------------------------- *)

let test_shard_of_string () =
  let ok s i n =
    match Orchestrate.shard_of_string s with
    | Ok sh ->
      check_int "index" i sh.Orchestrate.index;
      check_int "count" n sh.Orchestrate.count;
      check_string "roundtrip" (Printf.sprintf "%d/%d" i n)
        (Orchestrate.shard_to_string sh)
    | Error m -> Alcotest.failf "shard %S rejected: %s" s m
  in
  ok "0/1" 0 1;
  ok "2/3" 2 3;
  ok " 1/4 " 1 4;
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "reject %S" s) true
        (Result.is_error (Orchestrate.shard_of_string s)))
    [ ""; "1"; "1/"; "/2"; "2/2"; "-1/2"; "0/0"; "a/b"; "1/2/3" ]

let test_shard_rule_pinned () =
  (* The partitioning rule is persisted in artifacts and cross-checked
     by combine, so it must never drift. These values were computed at
     introduction time; a mismatch means old shard artifacts no longer
     combine. *)
  let got seed count n =
    List.init n (fun i -> Orchestrate.shard_of_trial ~seed ~count i)
  in
  check_bool "seed 5, 2 shards" true
    (got 5 2 12 = [ 1; 0; 0; 0; 0; 0; 1; 0; 0; 0; 0; 1 ]);
  check_bool "seed 5, 3 shards" true
    (got 5 3 12 = [ 0; 2; 1; 1; 2; 2; 2; 2; 0; 2; 1; 0 ]);
  check_bool "seed 42, 4 shards" true
    (got 42 4 8 = [ 1; 3; 1; 2; 1; 0; 1; 1 ]);
  check_bool "count 1 is identically shard 0" true
    (got 123 1 20 = List.init 20 (fun _ -> 0))

let test_shard_partition () =
  (* Union over the shards = compile, disjointly, for n in {2, 3, 4}. *)
  let spec = Campaign.spec ~grid:two_axis_grid ~trials:23 ~seed:9 () in
  let all =
    List.map (fun (t : Campaign.trial) -> t.Campaign.index) (Campaign.compile spec)
  in
  List.iter
    (fun count ->
      let parts =
        List.init count (fun index ->
            List.map
              (fun (t : Campaign.trial) -> t.Campaign.index)
              (Orchestrate.shard_trials { Orchestrate.index; count } spec))
      in
      let union = List.sort Int.compare (List.concat parts) in
      check_bool
        (Printf.sprintf "union of %d shards = compile" count)
        true (union = all);
      (* each shard ascending (disjointness follows from union = all) *)
      List.iter
        (fun part -> check_bool "ascending" true (List.sort Int.compare part = part))
        parts)
    [ 2; 3; 4 ]

let test_spec_fingerprint () =
  let spec = Campaign.spec ~grid:two_axis_grid ~trials:10 ~seed:4 () in
  let fp = Orchestrate.spec_fingerprint spec in
  check_string "deterministic" fp (Orchestrate.spec_fingerprint spec);
  List.iter
    (fun (what, other) ->
      check_bool (what ^ " changes the fingerprint") true
        (Orchestrate.spec_fingerprint other <> fp))
    [
      ("seed", { spec with Campaign.seed = 5 });
      ("trials", { spec with Campaign.trials = 11 });
      ("shrink", { spec with Campaign.shrink = false });
      ("grid", { spec with Campaign.grid = Campaign.default_grid });
    ]

(* --- the acceptance property ----------------------------------------- *)

let prop_shard_combine_resume_identity =
  (* ISSUE 8's acceptance property: for shard counts n in {2, 3} the
     combined shard artifacts are byte-identical to the unsharded run
     at jobs in {1, 4}, and an interrupted run resumed from its partial
     artifact reproduces the same bytes (hence the same fingerprint). *)
  QCheck.Test.make ~name:"shard/combine/resume reproduce unsharded bytes" ~count:15
    QCheck.(map (fun s -> abs s) small_int)
    (fun seed ->
      let spec =
        Campaign.spec ~grid:two_axis_grid
          ~trials:(6 + (seed mod 7))
          ~seed ~shrink:false ()
      in
      let full = unsharded_lines ~jobs:1 spec in
      let sharded_ok =
        List.for_all
          (fun count ->
            List.for_all
              (fun jobs ->
                let parts =
                  List.init count (fun index ->
                      match
                        Orchestrate.run ~jobs ~shard:{ Orchestrate.index; count } spec
                      with
                      | Ok r -> r.Orchestrate.lines
                      | Error _ -> [])
                in
                match Orchestrate.combine parts with
                | Ok (lines, _) -> lines = full
                | Error _ -> false)
              [ 1; 4 ])
          [ 2; 3 ]
      in
      let resume_ok =
        (* interrupt shard 0/2 partway, resume from the partial bytes *)
        let shard = { Orchestrate.index = 0; count = 2 } in
        match Orchestrate.run ~jobs:1 ~max_trials:2 ~shard spec with
        | Error _ -> false
        | Ok partial -> (
          match Orchestrate.parse_artifact partial.Orchestrate.lines with
          | Error _ -> false
          | Ok art -> (
            match Orchestrate.run ~jobs:4 ~resume:art ~shard spec with
            | Error _ -> false
            | Ok resumed -> (
              resumed.Orchestrate.complete
              &&
              match Orchestrate.run ~jobs:1 ~shard spec with
              | Ok direct -> resumed.Orchestrate.lines = direct.Orchestrate.lines
              | Error _ -> false)))
      in
      sharded_ok && resume_ok)

(* --- resume ----------------------------------------------------------- *)

let test_resume_counters () =
  (* skipped + executed = shard total, on the result and on the
     registry: campaign.resume.skipped + campaign.trials = campaign.shard.trials. *)
  let spec = Campaign.spec ~grid:two_axis_grid ~trials:11 ~seed:3 ~shrink:false () in
  let shard = Orchestrate.unsharded in
  let partial =
    match Orchestrate.run ~jobs:1 ~max_trials:4 ~shard spec with
    | Ok r -> r
    | Error m -> Alcotest.failf "partial run failed: %s" m
  in
  check_bool "partial incomplete" true (not partial.Orchestrate.complete);
  check_int "partial executed" 4 partial.Orchestrate.executed;
  let art =
    match Orchestrate.parse_artifact partial.Orchestrate.lines with
    | Ok a -> a
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  check_bool "partial artifact not complete" true (not art.Orchestrate.a_complete);
  let obs = Obs.with_memory () in
  let resumed =
    match Orchestrate.run ~obs ~jobs:2 ~resume:art ~shard spec with
    | Ok r -> r
    | Error m -> Alcotest.failf "resume failed: %s" m
  in
  check_int "skipped" 4 resumed.Orchestrate.skipped;
  check_int "executed" 7 resumed.Orchestrate.executed;
  check_bool "complete" true resumed.Orchestrate.complete;
  let counters = Obs.Registry.counters (Obs.registry obs) in
  let counter name = Option.value ~default:(-1) (List.assoc_opt name counters) in
  check_int "campaign.resume.skipped" 4 (counter "campaign.resume.skipped");
  check_int "campaign.trials counts only the remainder" 7 (counter "campaign.trials");
  check_int "skipped + executed = shard total" (counter "campaign.shard.trials")
    (counter "campaign.resume.skipped" + counter "campaign.trials");
  let events = Obs.events obs in
  check_int "one resume event" 1
    (List.length
       (List.filter
          (fun e ->
            match e.Obs.payload with
            | Obs.Campaign_resumed { skipped = 4; remaining = 7 } -> true
            | _ -> false)
          events));
  check_int "one shard event" 1
    (List.length
       (List.filter
          (fun e ->
            match e.Obs.payload with Obs.Campaign_sharded _ -> true | _ -> false)
          events))

let test_resume_rejects_mismatch () =
  let spec = Campaign.spec ~grid:two_axis_grid ~trials:8 ~seed:3 ~shrink:false () in
  let shard = Orchestrate.unsharded in
  let art =
    match Orchestrate.run ~jobs:1 ~max_trials:3 ~shard spec with
    | Ok r -> (
      match Orchestrate.parse_artifact r.Orchestrate.lines with
      | Ok a -> a
      | Error m -> Alcotest.failf "parse failed: %s" m)
    | Error m -> Alcotest.failf "run failed: %s" m
  in
  let rejects what spec' shard' =
    match Orchestrate.run ~jobs:1 ~resume:art ~shard:shard' spec' with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "resume accepted a mismatched %s" what
  in
  rejects "seed" { spec with Campaign.seed = 4 } shard;
  rejects "trial count" { spec with Campaign.trials = 9 } shard;
  rejects "grid" { spec with Campaign.grid = Campaign.default_grid } shard;
  rejects "shrink flag" { spec with Campaign.shrink = true } shard;
  rejects "shard" spec { Orchestrate.index = 0; count = 2 }

let test_resume_of_complete_artifact_is_noop () =
  let spec = Campaign.spec ~grid:two_axis_grid ~trials:7 ~seed:6 ~shrink:false () in
  let shard = Orchestrate.unsharded in
  let full =
    match Orchestrate.run ~jobs:1 ~shard spec with
    | Ok r -> r
    | Error m -> Alcotest.failf "run failed: %s" m
  in
  let art =
    match Orchestrate.parse_artifact full.Orchestrate.lines with
    | Ok a -> a
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  match Orchestrate.run ~jobs:1 ~resume:art ~shard spec with
  | Error m -> Alcotest.failf "resume failed: %s" m
  | Ok r ->
    check_int "nothing executed" 0 r.Orchestrate.executed;
    check_int "everything skipped" 7 r.Orchestrate.skipped;
    check_bool "bytes reproduced" true
      (r.Orchestrate.lines = full.Orchestrate.lines)

(* --- artifact parsing ------------------------------------------------- *)

let test_parse_artifact_torn_tail () =
  let spec = Campaign.spec ~trials:5 ~seed:2 ~shrink:false () in
  let lines = unsharded_lines ~jobs:1 spec in
  (* killing the writer mid-line leaves a torn last line: dropped *)
  let torn = lines @ [ "{\"trial\":99,\"work" ] in
  (match Orchestrate.parse_artifact torn with
  | Error m -> Alcotest.failf "torn tail not tolerated: %s" m
  | Ok a -> check_int "verdicts intact" 5 (List.length a.Orchestrate.a_verdicts));
  (* a malformed line in the middle is corruption, not a torn write *)
  let corrupt = List.mapi (fun i l -> if i = 2 then "{\"bad" else l) lines in
  check_bool "mid-file corruption rejected" true
    (Result.is_error (Orchestrate.parse_artifact corrupt))

let test_parse_artifact_rejects () =
  let spec = Campaign.spec ~trials:4 ~seed:2 ~shrink:false () in
  let lines = unsharded_lines ~jobs:1 spec in
  check_bool "no header" true
    (Result.is_error (Orchestrate.parse_artifact (List.tl lines)));
  check_bool "concatenated artifacts" true
    (Result.is_error (Orchestrate.parse_artifact (lines @ lines)));
  (* duplicate verdict line *)
  let dup =
    match lines with
    | h :: v :: rest -> h :: v :: v :: rest
    | _ -> Alcotest.fail "artifact too short"
  in
  check_bool "duplicate trial" true (Result.is_error (Orchestrate.parse_artifact dup));
  (* a v1 (pre-orchestration) artifact has no spec_fp/shard header *)
  let v1 =
    ("{\"campaign\":1,\"seed\":2,\"trials\":4,\"configs\":1,\"shrink\":false,\"grid\":\"w=avionics|t=clique|n=6|f=1|r_us=200000|bw=10000000|protect=medium|share=default\"}"
    :: List.filteri (fun i _ -> i >= 1 && i <= 4) lines)
    @ [
        "{\"total\":4,\"violations\":0,\"rejected\":0,\"errors\":0,\"cache_hits\":3,\"cache_misses\":1,\"configs\":1,\"fingerprint\":\"0000000000000000\"}";
      ]
  in
  check_bool "v1 artifact rejected with guidance" true
    (match Orchestrate.parse_artifact v1 with
    | Error m -> contains ~sub:"version 1" m
    | Ok _ -> false)

(* --- combine ---------------------------------------------------------- *)

let shard_lines spec count index =
  match Orchestrate.run ~jobs:1 ~shard:{ Orchestrate.index; count } spec with
  | Ok r -> r.Orchestrate.lines
  | Error m -> Alcotest.failf "shard %d/%d failed: %s" index count m

let test_combine_rejects () =
  let spec = Campaign.spec ~grid:two_axis_grid ~trials:10 ~seed:8 ~shrink:false () in
  let s0 = shard_lines spec 2 0 and s1 = shard_lines spec 2 1 in
  let expect_err what inputs =
    match Orchestrate.combine inputs with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "combine accepted %s" what
  in
  expect_err "nothing" [];
  expect_err "a missing shard" [ s0 ];
  expect_err "a duplicated shard" [ s0; s0 ];
  let other = Campaign.spec ~grid:two_axis_grid ~trials:10 ~seed:9 ~shrink:false () in
  expect_err "shards of different campaigns" [ s0; shard_lines other 2 1 ];
  (* an incomplete shard must be resumed before combining *)
  let partial =
    match
      Orchestrate.run ~jobs:1 ~max_trials:1 ~shard:{ Orchestrate.index = 1; count = 2 }
        spec
    with
    | Ok r -> r.Orchestrate.lines
    | Error m -> Alcotest.failf "partial failed: %s" m
  in
  expect_err "an incomplete shard" [ s0; partial ];
  (* the happy path still works *)
  match Orchestrate.combine [ s1; s0 ] with
  | Error m -> Alcotest.failf "order-independent combine failed: %s" m
  | Ok (lines, _) ->
    check_bool "input order does not matter" true (lines = unsharded_lines ~jobs:1 spec)

(* --- frontier --------------------------------------------------------- *)

let r_frontier_spec =
  {
    Orchestrate.slice_grid = Campaign.default_grid;
    axis = Orchestrate.Axis_r;
    lo = Time.ms 20;
    hi = Time.ms 400;
    tolerance = Time.ms 10;
    probes = 2;
    fseed = 3;
  }

let test_frontier_matches_grid_scan () =
  (* The acceptance bar: bisection finds the same boundary as the
     exhaustive lattice scan on the reference slice, in at most half
     the trials (it is ~6x fewer here). *)
  let fr =
    match Orchestrate.frontier r_frontier_spec with
    | Ok fr -> fr
    | Error m -> Alcotest.failf "frontier failed: %s" m
  in
  let scan =
    match Orchestrate.grid_scan r_frontier_spec with
    | Ok fr -> fr
    | Error m -> Alcotest.failf "grid scan failed: %s" m
  in
  check_int "one slice" 1 (List.length fr.Orchestrate.slices);
  let fs = List.hd fr.Orchestrate.slices and ss = List.hd scan.Orchestrate.slices in
  (match fs.Orchestrate.found, ss.Orchestrate.found with
  | Some b, Some b' ->
    check_int "same admit boundary" b'.Orchestrate.admit_at b.Orchestrate.admit_at;
    check_int "same violate boundary" b'.Orchestrate.violate_at b.Orchestrate.violate_at;
    check_int "adjacent lattice points" r_frontier_spec.Orchestrate.tolerance
      (b.Orchestrate.admit_at - b.Orchestrate.violate_at)
  | _ -> Alcotest.fail "expected a boundary on the reference slice");
  check_bool "endpoint verdicts agree" true
    (fs.Orchestrate.lo_admit = ss.Orchestrate.lo_admit
    && fs.Orchestrate.hi_admit = ss.Orchestrate.hi_admit);
  check_bool "R admits above the boundary" true
    (fs.Orchestrate.hi_admit && not fs.Orchestrate.lo_admit);
  check_bool
    (Printf.sprintf "<= 0.5x the trials (%d vs %d)" fr.Orchestrate.total_probes
       scan.Orchestrate.total_probes)
    true
    (2 * fr.Orchestrate.total_probes <= scan.Orchestrate.total_probes);
  check_bool "bisection evals are logarithmic" true
    (fs.Orchestrate.evals <= 8 && ss.Orchestrate.evals = fr.Orchestrate.points)

let test_frontier_f_axis () =
  (* f admits below the boundary: direction flips relative to R. *)
  let fs =
    {
      Orchestrate.slice_grid =
        { Campaign.default_grid with Campaign.topologies = [ "ring" ]; node_counts = [ 7 ] };
      axis = Orchestrate.Axis_f;
      lo = 0;
      hi = 3;
      tolerance = 1;
      probes = 2;
      fseed = 3;
    }
  in
  match Orchestrate.frontier fs, Orchestrate.grid_scan fs with
  | Ok fr, Ok scan -> (
    let s = List.hd fr.Orchestrate.slices in
    check_bool "f admits at lo" true s.Orchestrate.lo_admit;
    check_bool "f violates at hi" true (not s.Orchestrate.hi_admit);
    match s.Orchestrate.found, (List.hd scan.Orchestrate.slices).Orchestrate.found with
    | Some b, Some b' ->
      check_int "same boundary as scan" b'.Orchestrate.admit_at b.Orchestrate.admit_at;
      check_bool "admit side below violate side" true
        (b.Orchestrate.admit_at < b.Orchestrate.violate_at)
    | _ -> Alcotest.fail "expected an f boundary")
  | Error m, _ | _, Error m -> Alcotest.failf "f frontier failed: %s" m

let test_frontier_no_boundary () =
  (* Entirely inside the admit region: two endpoint evals, no boundary. *)
  let fs = { r_frontier_spec with Orchestrate.lo = Time.ms 150; hi = Time.ms 300 } in
  match Orchestrate.frontier fs with
  | Error m -> Alcotest.failf "frontier failed: %s" m
  | Ok fr ->
    let s = List.hd fr.Orchestrate.slices in
    check_bool "no boundary" true (s.Orchestrate.found = None);
    check_bool "both endpoints admit" true
      (s.Orchestrate.lo_admit && s.Orchestrate.hi_admit);
    check_int "only the endpoints evaluated" 2 s.Orchestrate.evals

let test_frontier_counters_and_events () =
  let obs = Obs.with_memory () in
  match Orchestrate.frontier ~obs r_frontier_spec with
  | Error m -> Alcotest.failf "frontier failed: %s" m
  | Ok fr ->
    let counters = Obs.Registry.counters (Obs.registry obs) in
    let counter name = Option.value ~default:(-1) (List.assoc_opt name counters) in
    check_int "campaign.frontier.probes" fr.Orchestrate.total_probes
      (counter "campaign.frontier.probes");
    check_int "campaign.frontier.slices" (List.length fr.Orchestrate.slices)
      (counter "campaign.frontier.slices");
    let located =
      List.filter_map
        (fun e ->
          match e.Obs.payload with
          | Obs.Frontier_located { axis; boundary; _ } -> Some (axis, boundary)
          | _ -> None)
        (Obs.events obs)
    in
    check_int "one event per slice" (List.length fr.Orchestrate.slices)
      (List.length located);
    (match located, (List.hd fr.Orchestrate.slices).Orchestrate.found with
    | [ (axis, boundary) ], Some b ->
      check_string "axis tag" "r" axis;
      check_int "boundary payload is the admit side" b.Orchestrate.admit_at boundary
    | _ -> Alcotest.fail "expected one located event with a boundary")

let test_frontier_validation () =
  let bad what fs =
    match Orchestrate.frontier fs with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "frontier accepted %s" what
  in
  bad "lo >= hi" { r_frontier_spec with Orchestrate.lo = Time.ms 400; hi = Time.ms 20 };
  bad "zero tolerance" { r_frontier_spec with Orchestrate.tolerance = 0 };
  bad "zero probes" { r_frontier_spec with Orchestrate.probes = 0 };
  bad "range narrower than the lattice"
    { r_frontier_spec with Orchestrate.lo = 100; hi = 105; tolerance = 10 };
  bad "zero R lo" { r_frontier_spec with Orchestrate.lo = 0 };
  bad "empty slice grid"
    {
      r_frontier_spec with
      Orchestrate.slice_grid =
        { Campaign.default_grid with Campaign.workloads = [] };
    }

let test_frontier_artifact_roundtrip () =
  match Orchestrate.frontier r_frontier_spec with
  | Error m -> Alcotest.failf "frontier failed: %s" m
  | Ok fr -> (
    let lines = Orchestrate.frontier_lines fr in
    check_bool "tagged as frontier artifact" true
      (Orchestrate.is_frontier_artifact lines);
    check_bool "campaign artifacts are not" true
      (not
         (Orchestrate.is_frontier_artifact
            (unsharded_lines ~jobs:1
               (Campaign.spec ~trials:2 ~seed:1 ~shrink:false ()))));
    match Orchestrate.render_frontier lines with
    | Error m -> Alcotest.failf "render failed: %s" m
    | Ok report ->
      check_bool "reports the axis" true (contains ~sub:"axis r" report);
      check_bool "reports the boundary" true (contains ~sub:"admit >=" report);
      check_bool "frontier lines are deterministic" true
        (match Orchestrate.frontier r_frontier_spec with
        | Ok fr' -> Orchestrate.frontier_lines fr' = lines
        | Error _ -> false))

(* --- reading artifacts back ---------------------------------------- *)

module J = Flat_json

(* A random-workload campaign whose graph depends on the campaign seed:
   at seed 5 trial 2 violates, while under seed 1 every trial's config
   is rejected by the planner. *)
let random_seed5 =
  lazy
    (unsharded_lines ~jobs:1
       (Campaign.spec
          ~grid:{ Campaign.default_grid with Campaign.workloads = [ "random" ] }
          ~trials:6 ~seed:5 ()))

let test_replay_uses_header_seed () =
  let art =
    match Orchestrate.parse_artifact (Lazy.force random_seed5) with
    | Ok a -> a
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  check_bool "records a violation" true
    (List.exists
       (fun (_, (e : Orchestrate.entry)) -> J.str_of e.fields "verdict" = Some "violation")
       art.Orchestrate.a_verdicts);
  List.iter
    (fun (i, (e : Orchestrate.entry)) ->
      match Orchestrate.replay art i with
      | Error m -> Alcotest.failf "replay of trial %d failed: %s" i m
      | Ok (t, outcome) ->
        check_int "replayed trial" i t.Campaign.index;
        check_string
          (Printf.sprintf "trial %d outcome" i)
          (Option.value ~default:"?" (J.str_of e.fields "verdict"))
          (Campaign.outcome_name outcome);
        Alcotest.(check (option int))
          (Printf.sprintf "trial %d worst_recovery_us" i)
          (J.int_of e.fields "worst_recovery_us")
          (match outcome with
          | Campaign.Pass st | Campaign.Violation st -> Some st.Campaign.worst_recovery
          | Campaign.Rejected _ | Campaign.Errored _ -> None))
    art.Orchestrate.a_verdicts;
  check_bool "an unrecorded trial is an error" true
    (Result.is_error (Orchestrate.replay art 6))

let frontier_artifact =
  lazy
    (match Orchestrate.frontier r_frontier_spec with
    | Ok fr -> Orchestrate.frontier_lines fr
    | Error m -> Alcotest.failf "frontier failed: %s" m)

let test_readers_refuse_torn () =
  let torn lines = lines @ [ "{\"trial\":99,\"work" ] in
  let lines = Lazy.force random_seed5 in
  (match Orchestrate.parse_artifact lines, Orchestrate.parse_artifact (torn lines) with
  | Ok whole, Ok cut ->
    check_bool "whole artifact not flagged" false whole.Orchestrate.a_torn;
    check_bool "torn artifact flagged" true cut.Orchestrate.a_torn;
    check_bool "replay refuses it" true (Result.is_error (Orchestrate.replay cut 0))
  | Error m, _ | _, Error m -> Alcotest.failf "parse failed: %s" m);
  check_bool "report refuses it" true
    (Result.is_error (Orchestrate.render_report (torn lines)));
  check_bool "frontier report refuses it" true
    (Result.is_error (Orchestrate.render_frontier (torn (Lazy.force frontier_artifact))))

(* Mutation fuzzing of the artifact readers: truncate the text at a
   byte, flip a byte, insert a JSON-significant fragment, drop or
   duplicate a line, or splice in a line of the other artifact kind.
   Each reader must answer Ok or Error. *)
type mutation =
  | Truncate of int
  | Flip of int * int
  | Insert of int * int
  | Drop of int
  | Dup of int
  | Splice of int * int

let fragments =
  [| "\""; "\\"; "\\u"; "\\u00"; "\\uzzzz"; "{"; "}"; ","; ":"; "-"; "1e999";
     "true"; "\n"; "\"trial\":"; "\"campaign\":1,"; "\"frontier\":1," |]

let mutate ~other lines m =
  let nth_mod l i = List.nth l (i mod List.length l) in
  let text () = String.concat "\n" lines ^ "\n" in
  match m with
  | Truncate k ->
    let t = text () in
    String.split_on_char '\n' (String.sub t 0 (k mod (String.length t + 1)))
  | Flip (k, x) ->
    let t = Bytes.of_string (text ()) in
    let k = k mod Bytes.length t in
    Bytes.set t k (Char.chr (Char.code (Bytes.get t k) lxor (1 + (x mod 255))));
    String.split_on_char '\n' (Bytes.to_string t)
  | Insert (k, f) ->
    let t = text () in
    let k = k mod (String.length t + 1) in
    String.split_on_char '\n'
      (String.sub t 0 k ^ fragments.(f mod Array.length fragments)
      ^ String.sub t k (String.length t - k))
  | Drop _ | Dup _ when lines = [] -> lines
  | Drop i ->
    let i = i mod List.length lines in
    List.filteri (fun j _ -> j <> i) lines
  | Dup i ->
    let i = i mod List.length lines in
    List.concat (List.mapi (fun j l -> if j = i then [ l; l ] else [ l ]) lines)
  | Splice (i, j) ->
    let i = i mod (List.length lines + 1) in
    List.filteri (fun k _ -> k < i) lines
    @ (nth_mod other j :: List.filteri (fun k _ -> k >= i) lines)

let prop_readers_total =
  let gen =
    let open QCheck.Gen in
    let idx = int_bound 100_000 in
    let mutation =
      oneof
        [
          map (fun k -> Truncate k) idx;
          map2 (fun k x -> Flip (k, x)) idx idx;
          map2 (fun k f -> Insert (k, f)) idx idx;
          map (fun i -> Drop i) idx;
          map (fun i -> Dup i) idx;
          map2 (fun i j -> Splice (i, j)) idx idx;
        ]
    in
    pair bool (list_size (int_range 1 3) mutation)
  in
  let print (frontier, ms) =
    Printf.sprintf "%s artifact, %d mutation(s)"
      (if frontier then "frontier" else "campaign")
      (List.length ms)
  in
  QCheck.Test.make ~name:"artifact readers are total under mutation" ~count:500
    (QCheck.make ~print gen) (fun (frontier, ms) ->
      let campaign = Lazy.force random_seed5 and fr = Lazy.force frontier_artifact in
      let base, other = if frontier then (fr, campaign) else (campaign, fr) in
      let lines = List.fold_left (mutate ~other) base ms in
      let total name f =
        match f () with
        | Ok _ | Error _ -> ()
        | exception e ->
          QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string e)
      in
      List.iter (fun l -> total "Flat_json.parse" (fun () -> J.parse l)) lines;
      total "parse_artifact" (fun () -> Orchestrate.parse_artifact lines);
      total "render_report" (fun () -> Orchestrate.render_report lines);
      total "render_frontier" (fun () -> Orchestrate.render_frontier lines);
      total "combine" (fun () -> Orchestrate.combine [ lines ]);
      true)

let suite =
  [
    Alcotest.test_case "shard_of_string" `Quick test_shard_of_string;
    Alcotest.test_case "shard rule pinned" `Quick test_shard_rule_pinned;
    Alcotest.test_case "shards partition the trial list" `Quick test_shard_partition;
    Alcotest.test_case "spec fingerprint" `Quick test_spec_fingerprint;
    QCheck_alcotest.to_alcotest prop_shard_combine_resume_identity;
    Alcotest.test_case "resume counters and events" `Quick test_resume_counters;
    Alcotest.test_case "resume rejects mismatches" `Quick test_resume_rejects_mismatch;
    Alcotest.test_case "resume of a complete artifact" `Quick
      test_resume_of_complete_artifact_is_noop;
    Alcotest.test_case "parse tolerates a torn tail" `Quick test_parse_artifact_torn_tail;
    Alcotest.test_case "parse rejects corrupt artifacts" `Quick test_parse_artifact_rejects;
    Alcotest.test_case "combine cross-checks" `Quick test_combine_rejects;
    Alcotest.test_case "frontier = grid scan at <= 0.5x trials" `Quick
      test_frontier_matches_grid_scan;
    Alcotest.test_case "frontier on the f axis" `Quick test_frontier_f_axis;
    Alcotest.test_case "frontier without a boundary" `Quick test_frontier_no_boundary;
    Alcotest.test_case "frontier counters and events" `Quick
      test_frontier_counters_and_events;
    Alcotest.test_case "frontier validation" `Quick test_frontier_validation;
    Alcotest.test_case "frontier artifact roundtrip" `Quick
      test_frontier_artifact_roundtrip;
    Alcotest.test_case "replay --from plans under the header seed" `Quick
      test_replay_uses_header_seed;
    Alcotest.test_case "readers refuse a torn artifact" `Quick test_readers_refuse_torn;
    QCheck_alcotest.to_alcotest prop_readers_total;
  ]
