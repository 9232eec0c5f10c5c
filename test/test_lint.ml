(* Determinism linter: the canonical hazard — an unsorted Hashtbl.iter
   feeding a trace — must be caught; suppression comments and path
   exemptions must be honored; benign idioms must stay quiet. *)

module Lint = Btr_lint_core.Lint

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let findings ?(file = "fixture.ml") src =
  match Lint.lint_string ~file src with
  | Ok fs -> fs
  | Error m -> Alcotest.failf "lint failed: %s" m

let rules ?file src = List.map (fun (f : Lint.finding) -> f.rule) (findings ?file src)

let test_hashtbl_iter_feeding_trace () =
  let src =
    "let emit_trace h out =\n\
    \  Hashtbl.iter (fun k v -> output_string out (k ^ string_of_int v)) h\n"
  in
  match findings src with
  | [ f ] ->
    check_bool "rule" true (f.rule = Lint.Hashtbl_order);
    check_int "line" 2 f.line;
    check_int "col" 2 f.col
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_hashtbl_variants () =
  check_bool "fold" true (rules "let n h = Hashtbl.fold (fun _ _ a -> a + 1) h 0" = [ Lint.Hashtbl_order ]);
  check_bool "to_seq" true (rules "let s h = Hashtbl.to_seq h" = [ Lint.Hashtbl_order ]);
  check_bool "stdlib-qualified" true
    (rules "let f h g = Stdlib.Hashtbl.iter g h" = [ Lint.Hashtbl_order ]);
  check_bool "replace is fine" true (rules "let f h = Hashtbl.replace h 1 2" = [])

let test_poly_compare () =
  check_bool "bare compare" true
    (rules "let s l = List.sort compare l" = [ Lint.Poly_compare ]);
  check_bool "stdlib compare" true
    (rules "let s l = List.sort Stdlib.compare l" = [ Lint.Poly_compare ]);
  check_bool "first-class =" true
    (rules "let f l = List.exists (( = ) 1) l" = [ Lint.Poly_compare ]);
  check_bool "infix = is quiet" true (rules "let f x = x = 1" = []);
  check_bool "infix <> is quiet" true (rules "let f x = x <> 1" = []);
  check_bool "typed compare is quiet" true
    (rules "let s l = List.sort Int.compare l" = [])

let test_wall_clock_and_random () =
  check_bool "Sys.time" true (rules "let t () = Sys.time ()" = [ Lint.Wall_clock ]);
  check_bool "Unix.gettimeofday" true
    (rules "let t () = Unix.gettimeofday ()" = [ Lint.Wall_clock ]);
  check_bool "Random.int" true (rules "let r () = Random.int 5" = [ Lint.Raw_random ]);
  check_bool "Random.self_init" true
    (rules "let () = Random.self_init ()" = [ Lint.Raw_random ])

let test_rng_path_exempt () =
  let src = "let seed () = Random.self_init (); int_of_float (Sys.time ())" in
  check_bool "exempt in lib/util/rng.ml" true
    (rules ~file:"lib/util/rng.ml" src = []);
  check_bool "hashtbl still flagged in rng.ml" true
    (rules ~file:"lib/util/rng.ml" "let f h g = Hashtbl.iter g h"
    = [ Lint.Hashtbl_order ]);
  check_bool "flagged elsewhere" true (List.length (rules src) = 2)

let test_suppression_same_line () =
  let src =
    "let f h g = Hashtbl.iter g h (* btr-lint: allow hashtbl-order *)\n"
  in
  check_bool "suppressed" true (rules src = [])

let test_suppression_preceding_comment () =
  let src =
    "(* btr-lint: allow wall-clock — self-profiling,\n\
    \   never enters a trace *)\n\
     let t () = Sys.time ()\n"
  in
  check_bool "multi-line comment covers next line" true (rules src = [])

let test_suppression_wrong_rule () =
  let src = "(* btr-lint: allow wall-clock *)\nlet f h g = Hashtbl.iter g h\n" in
  check_bool "other rules still fire" true (rules src = [ Lint.Hashtbl_order ])

let test_suppression_does_not_leak () =
  let src =
    "let f h g = Hashtbl.iter g h (* btr-lint: allow hashtbl-order *)\n\
     let x = 1\n\
     let y = 2\n\
     let g h k = Hashtbl.iter k h\n"
  in
  match findings src with
  | [ f ] -> check_int "only the distant use flagged" 4 f.line
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_directive_in_string_is_inert () =
  let src =
    "let s = {|(* btr-lint: allow hashtbl-order *)|}\n\
     let f h g = Hashtbl.iter g h\n"
  in
  check_bool "quoted string is not a comment" true
    (rules src = [ Lint.Hashtbl_order ])

let test_suppression_after_continued_string () =
  (* The literal spans lines 1-2 through a backslash-newline, so the
     directive on line 3 must cover line 4. *)
  let src =
    "let s = \"one \\\n\
    \         two\"\n\
     (* btr-lint: allow hashtbl-order *)\n\
     let f h g = Hashtbl.iter g h\n"
  in
  check_bool "directive after a continued literal" true (rules src = [])

let test_fingerprint_order_hit () =
  (* Hashing a Hashtbl fold: both the order hazard (L001) and the
     memo-key hazard (L005) fire at the same location. *)
  let src =
    "let fp h =\n\
    \  Btr_util.Fnv.hash64 (Hashtbl.fold (fun k v a -> a ^ k ^ v) h \"\")\n"
  in
  (match findings src with
  | [ a; b ] ->
    check_bool "L001 first" true (a.rule = Lint.Hashtbl_order);
    check_bool "L005 second" true (b.rule = Lint.Fingerprint_order);
    check_int "same line" a.line b.line
  | fs -> Alcotest.failf "expected two findings, got %d" (List.length fs));
  (* unqualified entry point, iterator passed through a pipeline arg *)
  check_bool "Fnv.hash64_lines" true
    (rules "let fp h = Fnv.hash64_lines (Hashtbl.fold (fun k _ a -> k :: a) h [])"
    = [ Lint.Hashtbl_order; Lint.Fingerprint_order ])

let test_fingerprint_order_quiet () =
  check_bool "sorted bindings are quiet" true
    (rules "let fp l = Btr_util.Fnv.hash64 (String.concat \",\" l)" = []);
  (* a Hashtbl iterator outside any Fnv call is only L001 *)
  check_bool "iterator without Fnv is L001 only" true
    (rules "let ks h = Hashtbl.fold (fun k _ a -> k :: a) h []"
    = [ Lint.Hashtbl_order ]);
  (* an Fnv call whose argument was materialized elsewhere is quiet *)
  check_bool "hash of a prebuilt string is quiet" true
    (rules "let fp s = Fnv.hash64 s" = [])

let test_fingerprint_order_suppression () =
  let src =
    "let fp h =\n\
    \  (* commutative xor, order-free: btr-lint: allow hashtbl-order\n\
    \     btr-lint: allow fingerprint-order *)\n\
    \  Fnv.hash64 (Hashtbl.fold (fun _ v a -> a ^ v) h \"\")\n"
  in
  check_bool "both suppressible in one comment" true (rules src = []);
  let only_l001 =
    "let fp h =\n\
    \  (* btr-lint: allow hashtbl-order *)\n\
    \  Fnv.hash64 (Hashtbl.fold (fun _ v a -> a ^ v) h \"\")\n"
  in
  check_bool "allowing L001 does not silence L005" true
    (rules only_l001 = [ Lint.Fingerprint_order ])

let test_parse_error_reported () =
  match Lint.lint_string ~file:"bad.ml" "let let = in" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

let test_rule_ids_stable () =
  check_bool "ids" true
    (List.map Lint.rule_id Lint.all_rules
    = [ "BTR-L001"; "BTR-L002"; "BTR-L003"; "BTR-L004"; "BTR-L005" ]);
  check_bool "names roundtrip" true
    (List.for_all
       (fun r -> Lint.rule_of_name (Lint.rule_name r) = Some r)
       Lint.all_rules)

(* Trial state lives in [Inttbl]s too: their iterators are flagged like
   [Hashtbl]'s, qualified or not, and the sorted traversal is quiet. *)
let test_inttbl_variants () =
  List.iter
    (fun src -> check_bool src true (rules src = [ Lint.Hashtbl_order ]))
    [
      "let f h g = Inttbl.iter g h";
      "let n h = Inttbl.fold (fun _ _ a -> a + 1) h 0";
      "let s h = Inttbl.to_seq h";
      "let s h = Inttbl.to_seq_keys h";
      "let s h = Inttbl.to_seq_values h";
      "let f h g = Btr_util.Inttbl.iter g h";
    ];
  check_bool "Inttbl fold inside Fnv is L005 too" true
    (rules "let fp h = Fnv.hash64_lines (Inttbl.fold (fun _ v a -> v :: a) h [])"
    = [ Lint.Hashtbl_order; Lint.Fingerprint_order ]);
  check_bool "Inttbl fold inside an Fnv fold is L005 too" true
    (rules "let fp h = Fnv.fold_int Fnv.offset (Inttbl.fold (fun _ v a -> v + a) h 0)"
    = [ Lint.Hashtbl_order; Lint.Fingerprint_order ]);
  check_bool "suppressed like Hashtbl" true
    (rules "let f h g = Inttbl.iter g h (* btr-lint: allow hashtbl-order *)\n" = []);
  check_bool "sorted_keys is quiet" true
    (rules "let ks h = List.map (Inttbl.find h) (Inttbl.sorted_keys h)" = []);
  check_bool "find and replace are quiet" true
    (rules "let f h = Inttbl.replace h 1 (Inttbl.find h 0)" = [])

let suite =
  [
    ("unsorted Hashtbl.iter feeding a trace fails", `Quick, test_hashtbl_iter_feeding_trace);
    ("all Hashtbl iteration forms flagged", `Quick, test_hashtbl_variants);
    ("polymorphic compare flagged, typed quiet", `Quick, test_poly_compare);
    ("wall clock and global Random flagged", `Quick, test_wall_clock_and_random);
    ("lib/util/rng.ml is exempt from clock/random", `Quick, test_rng_path_exempt);
    ("same-line suppression", `Quick, test_suppression_same_line);
    ("preceding multi-line comment suppression", `Quick, test_suppression_preceding_comment);
    ("suppression is rule-specific", `Quick, test_suppression_wrong_rule);
    ("suppression does not leak down the file", `Quick, test_suppression_does_not_leak);
    ("directives inside strings are inert", `Quick, test_directive_in_string_is_inert);
    ("backslash-newline in a string counts as a line", `Quick,
      test_suppression_after_continued_string);
    ("Hashtbl iterator inside Fnv call is L005", `Quick, test_fingerprint_order_hit);
    ("L005 stays quiet off the fingerprint path", `Quick, test_fingerprint_order_quiet);
    ("L005 suppression is independent of L001", `Quick, test_fingerprint_order_suppression);
    ("parse errors are reported", `Quick, test_parse_error_reported);
    ("rule ids are stable", `Quick, test_rule_ids_stable);
    ("Inttbl iteration forms flagged like Hashtbl", `Quick, test_inttbl_variants);
  ]
