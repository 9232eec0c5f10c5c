open Btr_util
module Auth = Btr_crypto.Auth
module Evidence = Btr_evidence.Evidence

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let setup () =
  let auth = Auth.create () in
  let k0 = Auth.gen_key auth ~owner:0 in
  let k1 = Auth.gen_key auth ~owner:1 in
  (auth, k0, k1)

let stmt ?(detector = 0) ?(accused = Evidence.Node 3) () =
  {
    Evidence.accused;
    fault_class = Evidence.Wrong_value;
    detector;
    period = 7;
    detected_at = Time.ms 140;
    detail = "replay mismatch";
  }

let test_sign_validate () =
  let auth, k0, _ = setup () in
  let r = Evidence.sign auth k0 (stmt ()) in
  check_bool "validates" true (Evidence.validate auth r)

let test_wrong_signer_rejected () =
  let auth, _, k1 = setup () in
  Alcotest.check_raises "cannot sign as another node"
    (Invalid_argument "Evidence.sign: detector must sign its own statements")
    (fun () -> ignore (Evidence.sign auth k1 (stmt ~detector:0 ())))

let test_tampered_rejected () =
  let auth, k0, _ = setup () in
  let r = Evidence.sign auth k0 (stmt ()) in
  let tampered =
    { r with Evidence.statement = { r.Evidence.statement with Evidence.period = 8 } }
  in
  check_bool "tampered statement fails" false (Evidence.validate auth tampered)

let test_forged_rejected () =
  let auth, _, _ = setup () in
  let r = { Evidence.statement = stmt (); tag = Auth.forge_tag () } in
  check_bool "forged tag fails" false (Evidence.validate auth r)

let test_path_normalized () =
  (match Evidence.path 5 2 with
  | Evidence.Path (2, 5) -> ()
  | _ -> Alcotest.fail "path not normalized");
  check_bool "encode equal for both orders" true
    (Evidence.encode (stmt ~accused:(Evidence.path 5 2) ())
    = Evidence.encode (stmt ~accused:(Evidence.path 2 5) ()))

let test_encode_injective () =
  let variants =
    [
      stmt ();
      stmt ~detector:1 ();
      stmt ~accused:(Evidence.Node 4) ();
      stmt ~accused:(Evidence.path 0 3) ();
      { (stmt ()) with Evidence.period = 8 };
      { (stmt ()) with Evidence.fault_class = Evidence.Timing };
      { (stmt ()) with Evidence.detail = "other" };
      { (stmt ()) with Evidence.detected_at = Time.ms 141 };
    ]
  in
  let encodings = List.map Evidence.encode variants in
  check_int "all encodings distinct" (List.length variants)
    (List.length (List.sort_uniq String.compare encodings))

let test_distributor_fresh_then_duplicate () =
  let auth, k0, _ = setup () in
  let d = Evidence.Distributor.create ~node:1 () in
  let r = Evidence.sign auth k0 (stmt ()) in
  check_bool "fresh" true (Evidence.Distributor.admit d auth r = Evidence.Distributor.Fresh);
  check_bool "duplicate" true
    (Evidence.Distributor.admit d auth r = Evidence.Distributor.Duplicate);
  check_int "seen once" 1 (List.length (Evidence.Distributor.seen d))

let test_distributor_invalid_counted () =
  let auth, _, _ = setup () in
  let d = Evidence.Distributor.create ~node:1 () in
  let bogus = { Evidence.statement = stmt ~detector:0 (); tag = Auth.forge_tag () } in
  check_bool "invalid" true
    (Evidence.Distributor.admit d auth bogus = Evidence.Distributor.Invalid);
  check_int "counted against claimed signer" 1
    (Evidence.Distributor.invalid_count_from d 0);
  check_int "not admitted" 0 (List.length (Evidence.Distributor.seen d))

(* Flooding forwards only [Fresh] records, so forward-once rests on
   admission: however often and in whatever order copies of a record
   arrive, it is fresh exactly once. *)
let test_already_sent () =
  let auth, k0, k1 = setup () in
  let d = Evidence.Distributor.create ~node:2 () in
  let pool =
    [|
      Evidence.sign auth k0 (stmt ());
      Evidence.sign auth k1 (stmt ~detector:1 ());
      Evidence.sign auth k0 (stmt ~accused:(Evidence.path 0 3) ());
    |]
  in
  let fresh = Array.make (Array.length pool) 0 in
  List.iter
    (fun i ->
      if Evidence.Distributor.admit d auth pool.(i) = Evidence.Distributor.Fresh
      then fresh.(i) <- fresh.(i) + 1)
    [ 0; 1; 0; 2; 1; 1; 0; 2; 2; 0 ];
  Alcotest.(check (array int)) "each record fresh exactly once" [| 1; 1; 1 |] fresh;
  (* A re-signed copy of the same statement is the same record. *)
  check_bool "re-signed copy is a duplicate" true
    (Evidence.Distributor.admit d auth (Evidence.sign auth k0 (stmt ()))
    = Evidence.Distributor.Duplicate)

let test_size_positive () =
  let auth, k0, _ = setup () in
  let r = Evidence.sign auth k0 (stmt ()) in
  check_bool "has a wire size" true (Evidence.size_bytes r > 16)

let prop_roundtrip =
  QCheck.Test.make ~name:"any well-formed statement signs and validates"
    ~count:200
    QCheck.(quad small_nat small_nat (int_bound 1000) (int_bound 3))
    (fun (accused, detector, period, cls) ->
      let auth = Auth.create () in
      let k = Auth.gen_key auth ~owner:detector in
      let fault_class =
        List.nth
          [ Evidence.Wrong_value; Evidence.Omission; Evidence.Timing; Evidence.Equivocation ]
          cls
      in
      let s =
        {
          Evidence.accused = Evidence.Node accused;
          fault_class;
          detector;
          period;
          detected_at = period * 1000;
          detail = "x";
        }
      in
      Evidence.validate auth (Evidence.sign auth k s))

(* [Evidence.encode] as it was first written, with [Printf]: the
   reference the allocation-free encoder must match byte for byte. *)
let reference_encode (s : Evidence.statement) =
  let accused =
    match s.accused with
    | Evidence.Node n -> Printf.sprintf "node:%d" n
    | Evidence.Path (a, b) -> Printf.sprintf "path:%d-%d" a b
  in
  Printf.sprintf "%s|%s|det:%d|p:%d|t:%d|%s" accused
    (Evidence.fault_class_name s.fault_class)
    s.detector s.period s.detected_at s.detail

let gen_statement =
  let open QCheck.Gen in
  (* Every int, negative ones and the extremes included. *)
  let n = oneof [ small_nat; int; map (fun x -> -x) small_nat; oneofl [ min_int; max_int ] ] in
  let accused =
    oneof [ map (fun x -> Evidence.Node x) n; map2 (fun a b -> Evidence.Path (a, b)) n n ]
  in
  let fault_class =
    oneofl
      [
        Evidence.Wrong_value;
        Evidence.Omission;
        Evidence.Omission_suspected;
        Evidence.Timing;
        Evidence.Equivocation;
        Evidence.Forged_evidence;
      ]
  in
  map3
    (fun (accused, fault_class) (detector, period) (detected_at, detail) ->
      { Evidence.accused; fault_class; detector; period; detected_at; detail })
    (pair accused fault_class) (pair n n)
    (pair n (string_size ~gen:printable (0 -- 24)))

let prop_encode_matches_reference =
  QCheck.Test.make ~name:"encode matches its Printf reference byte for byte" ~count:1000
    (QCheck.make ~print:reference_encode gen_statement)
    (fun s ->
      let r = { Evidence.statement = s; tag = Auth.forge_tag () } in
      String.equal (Evidence.encode s) (reference_encode s)
      && Evidence.size_bytes r = String.length (reference_encode s) + 16
      && String.equal (Evidence.dedup_key r) (reference_encode s))

let suite =
  [
    ("sign then validate", `Quick, test_sign_validate);
    ("cannot sign for another detector", `Quick, test_wrong_signer_rejected);
    ("tampering invalidates", `Quick, test_tampered_rejected);
    ("forged tags rejected", `Quick, test_forged_rejected);
    ("paths are unordered", `Quick, test_path_normalized);
    ("encoding is injective", `Quick, test_encode_injective);
    ("distributor: fresh then duplicate", `Quick, test_distributor_fresh_then_duplicate);
    ("distributor: invalid counted against signer", `Quick, test_distributor_invalid_counted);
    ("distributor: forward-once bookkeeping", `Quick, test_already_sent);
    ("records have a wire size", `Quick, test_size_positive);
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_encode_matches_reference;
  ]
