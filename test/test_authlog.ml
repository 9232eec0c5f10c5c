open Btr_util
module Auth = Btr_crypto.Auth
module Authlog = Btr_evidence.Authlog
module Fault = Btr_fault.Fault

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sample_entries =
  [
    Authlog.Sent { flow = 1; period = 0; digest = 11L };
    Authlog.Received { flow = 2; period = 0; digest = 22L; from_node = 4 };
    Authlog.Executed { task = 7; period = 0; output_digest = 33L };
  ]

let mk_log () =
  let auth = Auth.create () in
  let key = Auth.gen_key auth ~owner:3 in
  let log = Authlog.create ~owner:3 in
  List.iter (Authlog.append log) sample_entries;
  (auth, key, log)

let test_append_and_head () =
  let _, _, log = mk_log () in
  check_int "length" 3 (Authlog.length log);
  check_int "entries in order" 3 (List.length (Authlog.entries log));
  check_bool "entries round-trip" true (Authlog.entries log = sample_entries);
  let empty = Authlog.create ~owner:0 in
  check_bool "head moves with appends" false
    (Int64.equal (Authlog.head log) (Authlog.head empty))

let head_of entries =
  let log = Authlog.create ~owner:0 in
  List.iter (Authlog.append log) entries;
  Authlog.head log

let test_encode_injective () =
  let variants =
    [
      Authlog.Sent { flow = 1; period = 0; digest = 11L };
      Authlog.Sent { flow = 1; period = 1; digest = 11L };
      Authlog.Sent { flow = 2; period = 0; digest = 11L };
      Authlog.Received { flow = 1; period = 0; digest = 11L; from_node = 0 };
      Authlog.Executed { task = 1; period = 0; output_digest = 11L };
    ]
  in
  check_int "distinct heads" (List.length variants)
    (List.length
       (List.sort_uniq Int64.compare (List.map (fun e -> head_of [ e ]) variants)))

(* The chain encoding is part of every signed checkpoint: moving it must
   be a deliberate change to this value. *)
let test_head_pinned () =
  Alcotest.(check string) "head of the sample log" "9f2191e21e6b237d"
    (Printf.sprintf "%016Lx" (head_of sample_entries))

let test_checkpoint_sign_verify () =
  let auth, key, log = mk_log () in
  let cp = Authlog.checkpoint log auth key in
  check_bool "verifies" true (Authlog.verify_checkpoint auth cp);
  check_int "commits to current length" 3 cp.Authlog.cp_length;
  let other = Auth.gen_key auth ~owner:9 in
  Alcotest.check_raises "cannot checkpoint another node's log"
    (Invalid_argument "Authlog.checkpoint: secret does not belong to the log owner")
    (fun () -> ignore (Authlog.checkpoint log auth other))

let test_audit_consistent () =
  let auth, key, log = mk_log () in
  let cp = Authlog.checkpoint log auth key in
  check_bool "honest log audits clean" true
    (Authlog.audit cp (Authlog.entries log) = Authlog.Consistent);
  (* Appending after the checkpoint is fine: audit covers the prefix. *)
  Authlog.append log (Authlog.Sent { flow = 9; period = 1; digest = 99L });
  check_bool "longer log still consistent with old checkpoint" true
    (Authlog.audit cp (Authlog.entries log) = Authlog.Consistent)

let test_audit_detects_tampering () =
  let auth, key, log = mk_log () in
  let cp = Authlog.checkpoint log auth key in
  let tampered =
    List.map
      (function
        | Authlog.Sent { flow; period; digest = _ } ->
          Authlog.Sent { flow; period; digest = 666L }
        | e -> e)
      (Authlog.entries log)
  in
  (match Authlog.audit cp tampered with
  | Authlog.Tampered _ -> ()
  | _ -> Alcotest.fail "tampering must be detected");
  (* Reordering is also tampering. *)
  match Authlog.audit cp (List.rev (Authlog.entries log)) with
  | Authlog.Tampered _ -> ()
  | _ -> Alcotest.fail "reordering must be detected"

let test_audit_detects_truncation () =
  let auth, key, log = mk_log () in
  let cp = Authlog.checkpoint log auth key in
  match Authlog.audit cp (List.filteri (fun i _ -> i < 2) (Authlog.entries log)) with
  | Authlog.Truncated -> ()
  | _ -> Alcotest.fail "truncation must be detected"

(* Runtime integration: every correct node's log audits clean against
   its own signed checkpoints after a faulty run. *)
let test_runtime_logs_audit_clean () =
  let s =
    Btr.Scenario.spec
      ~workload:(Btr_workload.Generators.avionics ~n_nodes:6)
      ~topology:
        (Btr_net.Topology.fully_connected ~n:6 ~bandwidth_bps:10_000_000
           ~latency:(Time.us 50))
      ~f:1 ~recovery_bound:(Time.ms 200)
      ~script:(Fault.single ~at:(Time.ms 250) ~node:3 Fault.Corrupt_outputs)
      ~horizon:(Time.ms 600) ()
  in
  match Btr.Scenario.run s with
  | Error e -> Alcotest.failf "plan: %a" Btr.Scenario.Planner.pp_error e
  | Ok rt ->
    let auth = Btr.Runtime.auth rt in
    List.iter
      (fun node ->
        let log, checkpoints = Btr.Runtime.node_log rt node in
        check_bool
          (Printf.sprintf "node %d produced checkpoints" node)
          true (checkpoints <> []);
        List.iter
          (fun cp ->
            check_bool "checkpoint verifies" true (Authlog.verify_checkpoint auth cp);
            check_bool "log consistent with commitment" true
              (Authlog.audit cp (Authlog.entries log) = Authlog.Consistent))
          checkpoints)
      [ 0; 1; 2; 4; 5 ]

let prop_audit_roundtrip =
  QCheck.Test.make ~name:"audit accepts exactly the committed prefix" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (triple small_nat small_nat int64))
    (fun raw ->
      let auth = Auth.create () in
      let key = Auth.gen_key auth ~owner:0 in
      let log = Authlog.create ~owner:0 in
      List.iter
        (fun (flow, period, digest) ->
          Authlog.append log (Authlog.Sent { flow; period; digest }))
        raw;
      let cp = Authlog.checkpoint log auth key in
      Authlog.audit cp (Authlog.entries log) = Authlog.Consistent
      && Authlog.verify_checkpoint auth cp)

let gen_entry =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun flow period digest -> Authlog.Sent { flow; period; digest })
          small_nat small_nat ui64;
        map4
          (fun flow period digest from_node ->
            Authlog.Received { flow; period; digest; from_node })
          small_nat small_nat ui64 small_nat;
        map3
          (fun task period output_digest ->
            Authlog.Executed { task; period; output_digest })
          small_nat small_nat ui64;
      ])

(* Field [j] (mod the constructor's arity) of [e], moved by [d] > 0. *)
let edit_field e j d =
  let d64 = Int64.of_int d in
  match e with
  | Authlog.Sent r -> (
    match j mod 3 with
    | 0 -> Authlog.Sent { r with flow = r.flow + d }
    | 1 -> Authlog.Sent { r with period = r.period + d }
    | _ -> Authlog.Sent { r with digest = Int64.add r.digest d64 })
  | Authlog.Received r -> (
    match j mod 4 with
    | 0 -> Authlog.Received { r with flow = r.flow + d }
    | 1 -> Authlog.Received { r with period = r.period + d }
    | 2 -> Authlog.Received { r with digest = Int64.add r.digest d64 }
    | _ -> Authlog.Received { r with from_node = r.from_node + d })
  | Authlog.Executed r -> (
    match j mod 3 with
    | 0 -> Authlog.Executed { r with task = r.task + d }
    | 1 -> Authlog.Executed { r with period = r.period + d }
    | _ -> Authlog.Executed { r with output_digest = Int64.add r.output_digest d64 })

let prop_single_field_edit_tampered =
  QCheck.Test.make ~name:"editing one field of one entry fails the audit"
    ~count:300
    QCheck.(
      make
        Gen.(
          quad
            (list_size (1 -- 30) gen_entry)
            small_nat small_nat (1 -- 1_000_000)))
    (fun (entries, i, j, d) ->
      let auth = Auth.create () in
      let key = Auth.gen_key auth ~owner:0 in
      let log = Authlog.create ~owner:0 in
      List.iter (Authlog.append log) entries;
      let cp = Authlog.checkpoint log auth key in
      let i = i mod List.length entries in
      let edited = List.mapi (fun k e -> if k = i then edit_field e j d else e) entries in
      match Authlog.audit cp edited with
      | Authlog.Tampered _ -> true
      | Authlog.Consistent | Authlog.Truncated -> false)

(* Reference model of the chain: the documented fold, one
   [Auth.Chain.mix] per word, tag first. *)
let reference_head entries =
  let word link n = Auth.Chain.mix link (Int64.of_int n) in
  List.fold_left
    (fun link e ->
      match e with
      | Authlog.Sent { flow; period; digest } ->
        Auth.Chain.mix (word (word (word link 1) flow) period) digest
      | Authlog.Received { flow; period; digest; from_node } ->
        word (Auth.Chain.mix (word (word (word link 2) flow) period) digest) from_node
      | Authlog.Executed { task; period; output_digest } ->
        Auth.Chain.mix (word (word (word link 3) task) period) output_digest)
    Auth.Chain.genesis entries

let gen_wide_entry =
  (* Any int, negative ones included, and digests with the top bit set. *)
  let n = QCheck.Gen.(oneof [ small_nat; int; map (fun x -> -x) small_nat ]) in
  QCheck.Gen.(
    oneof
      [
        map3 (fun flow period digest -> Authlog.Sent { flow; period; digest }) n n ui64;
        map4
          (fun flow period digest from_node ->
            Authlog.Received { flow; period; digest; from_node })
          n n ui64 n;
        map3
          (fun task period output_digest -> Authlog.Executed { task; period; output_digest })
          n n ui64;
      ])

let prop_head_matches_reference =
  QCheck.Test.make ~name:"head equals the reference fold of Auth.Chain.mix" ~count:300
    (QCheck.make QCheck.Gen.(list_size (0 -- 40) gen_wide_entry))
    (fun entries -> Int64.equal (head_of entries) (reference_head entries))

(* The checkpoint message as it was first written, with [Printf]. *)
let reference_checkpoint_message ~owner ~length ~head =
  Printf.sprintf "checkpoint|%d|%d|%Lx" owner length head

let prop_checkpoint_message_bytes =
  QCheck.Test.make ~name:"checkpoint message matches its Printf reference" ~count:1000
    QCheck.(
      triple
        (oneof [ small_nat; int; make Gen.(return min_int); make Gen.(return max_int) ])
        int
        (oneof
           [
             int64;
             make Gen.(map Int64.of_int (0 -- 300));
             make Gen.(oneofl [ 0L; -1L; Int64.min_int; Int64.max_int; 0x1_0000_0000L ]);
           ]))
    (fun (owner, length, head) ->
      String.equal
        (Authlog.checkpoint_message ~owner ~length ~head)
        (reference_checkpoint_message ~owner ~length ~head))

(* The chain step must stay one unboxed expression and the head
   unboxed: a [Sent] entry and its append allocate the entry (4 words)
   and its list cell (3), and nothing per word. Boxing the head again
   costs 3 more words, a boxed chain step 15. *)
let test_append_allocation () =
  let log = Authlog.create ~owner:0 in
  let n = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    Authlog.append log (Authlog.Sent { flow = i; period = i; digest = Sys.opaque_identity 7L })
  done;
  let per_append = (Gc.minor_words () -. before) /. float_of_int n in
  if per_append > 7.0 then
    Alcotest.failf "Authlog.append of a Sent entry allocates %.1f words (> 7)" per_append

let suite =
  [
    ("append and head", `Quick, test_append_and_head);
    ("entry encoding injective", `Quick, test_encode_injective);
    ("checkpoint sign/verify", `Quick, test_checkpoint_sign_verify);
    ("audit: consistent logs pass", `Quick, test_audit_consistent);
    ("audit: tampering detected", `Quick, test_audit_detects_tampering);
    ("audit: truncation detected", `Quick, test_audit_detects_truncation);
    ("runtime: correct nodes' logs audit clean", `Quick, test_runtime_logs_audit_clean);
    QCheck_alcotest.to_alcotest prop_audit_roundtrip;
    ("head of the sample log is pinned", `Quick, test_head_pinned);
    QCheck_alcotest.to_alcotest prop_single_field_edit_tampered;
    QCheck_alcotest.to_alcotest prop_head_matches_reference;
    QCheck_alcotest.to_alcotest prop_checkpoint_message_bytes;
    ("append of a Sent entry allocates <= 7 words", `Quick, test_append_allocation);
  ]
