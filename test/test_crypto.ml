open Btr_crypto

let check_bool = Alcotest.(check bool)

let test_sign_verify () =
  let t = Auth.create () in
  let k3 = Auth.gen_key t ~owner:3 in
  let tag = Auth.sign t k3 "pressure=42" in
  check_bool "valid tag verifies" true (Auth.verify t ~signer:3 "pressure=42" tag);
  check_bool "wrong message fails" false (Auth.verify t ~signer:3 "pressure=43" tag);
  check_bool "wrong signer fails" false (Auth.verify t ~signer:4 "pressure=42" tag)

let test_no_cross_signing () =
  let t = Auth.create () in
  let k1 = Auth.gen_key t ~owner:1 in
  let _k2 = Auth.gen_key t ~owner:2 in
  let tag = Auth.sign t k1 "msg" in
  check_bool "node 1's tag does not pass as node 2's" false
    (Auth.verify t ~signer:2 "msg" tag)

let test_forged_tag_rejected () =
  let t = Auth.create () in
  let _k = Auth.gen_key t ~owner:0 in
  check_bool "forged tag rejected" false
    (Auth.verify t ~signer:0 "anything" (Auth.forge_tag ()));
  check_bool "unknown signer rejected" false
    (Auth.verify t ~signer:99 "anything" (Auth.forge_tag ()))

let test_duplicate_owner_rejected () =
  let t = Auth.create () in
  let _ = Auth.gen_key t ~owner:5 in
  Alcotest.check_raises "second key for same owner"
    (Invalid_argument "Auth.gen_key: owner 5 already registered") (fun () ->
      ignore (Auth.gen_key t ~owner:5))

let test_costs () =
  let t = Auth.create () in
  check_bool "sign cost positive" true (Auth.sign_cost t > 0);
  check_bool "verify cost positive" true (Auth.verify_cost t > 0);
  let t2 =
    Auth.create ~costs:{ sign_cost = 7; verify_cost = 3 } ()
  in
  Alcotest.(check int) "custom sign cost" 7 (Auth.sign_cost t2);
  Alcotest.(check int) "custom verify cost" 3 (Auth.verify_cost t2)

let test_owner_of_secret () =
  let t = Auth.create () in
  let k = Auth.gen_key t ~owner:8 in
  Alcotest.(check int) "owner" 8 (Auth.owner_of_secret k)

let test_digest_stable () =
  check_bool "digest deterministic" true
    (Int64.equal (Auth.digest "hello") (Auth.digest "hello"));
  check_bool "digest discriminates" false
    (Int64.equal (Auth.digest "hello") (Auth.digest "hellp"))

let test_chain () =
  let of_words = List.fold_left Auth.Chain.mix Auth.Chain.genesis in
  let c1 = of_words [ 1L; 2L; 3L ] in
  let c2 = of_words [ 1L; 2L; 3L ] in
  let c3 = of_words [ 1L; 3L; 2L ] in
  check_bool "chains deterministic" true (Int64.equal c1 c2);
  check_bool "chains order-sensitive" false (Int64.equal c1 c3);
  check_bool "mix changes link" false
    (Int64.equal Auth.Chain.genesis (Auth.Chain.mix Auth.Chain.genesis 7L))

(* FNV-1a 64 reference values: every MAC, output digest and campaign
   fingerprint rests on these, so a rewrite of the loop must not move
   them. *)
let test_digest_pinned () =
  let check_hex name want got =
    Alcotest.(check string) name (Printf.sprintf "%016Lx" want)
      (Printf.sprintf "%016Lx" got)
  in
  check_hex "empty string" 0xcbf29ce484222325L (Auth.digest "");
  check_hex "hello" 0xa430d84680aabd0bL (Auth.digest "hello")

let prop_mix_bijective =
  QCheck.Test.make ~name:"a chain step is injective in the link and the word"
    ~count:500
    QCheck.(triple int64 int64 int64)
    (fun (a, b, x) ->
      Int64.equal a b
      = Int64.equal (Auth.Chain.mix a x) (Auth.Chain.mix b x)
      && Int64.equal a b
         = Int64.equal (Auth.Chain.mix x a) (Auth.Chain.mix x b))

let prop_sign_verify_roundtrip =
  QCheck.Test.make ~name:"every signed message verifies under its signer"
    ~count:200
    QCheck.(pair small_nat string)
    (fun (owner, msg) ->
      let t = Auth.create () in
      let k = Auth.gen_key t ~owner in
      Auth.verify t ~signer:owner msg (Auth.sign t k msg))

let prop_tampered_message_rejected =
  QCheck.Test.make ~name:"appending a byte invalidates the tag" ~count:200
    QCheck.string
    (fun msg ->
      let t = Auth.create () in
      let k = Auth.gen_key t ~owner:0 in
      let tag = Auth.sign t k msg in
      not (Auth.verify t ~signer:0 (msg ^ "!") tag))

let suite =
  [
    ("sign/verify round trip", `Quick, test_sign_verify);
    ("tags are per-principal", `Quick, test_no_cross_signing);
    ("forged tags rejected", `Quick, test_forged_tag_rejected);
    ("duplicate key registration rejected", `Quick, test_duplicate_owner_rejected);
    ("cost model is exposed", `Quick, test_costs);
    ("secret knows its owner", `Quick, test_owner_of_secret);
    ("digest is stable and discriminating", `Quick, test_digest_stable);
    ("hash chains detect reordering", `Quick, test_chain);
    QCheck_alcotest.to_alcotest prop_sign_verify_roundtrip;
    QCheck_alcotest.to_alcotest prop_tampered_message_rejected;
    ("digest reference values", `Quick, test_digest_pinned);
    QCheck_alcotest.to_alcotest prop_mix_bijective;
  ]
