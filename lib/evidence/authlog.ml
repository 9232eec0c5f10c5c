open Btr_util
module Auth = Btr_crypto.Auth

type entry =
  | Sent of { flow : int; period : int; digest : int64 }
  | Received of { flow : int; period : int; digest : int64; from_node : int }
  | Executed of { task : int; period : int; output_digest : int64 }

(* The chain step for one entry: its constructor tag, then each field
   as a 64-bit word, each folded in as [Auth.Chain.mix] does. The steps
   are local and inlined: [mix] lives in another module, so each call
   would return its link boxed. *)
let[@inline] mix link x = Int64.mul (Int64.logxor link x) Auth.Chain.prime
let[@inline] word link n = mix link (Int64.of_int n)

let[@inline] extend link e =
  match e with
  | Sent { flow; period; digest } -> mix (word (word (word link 1) flow) period) digest
  | Received { flow; period; digest; from_node } ->
    word (mix (word (word (word link 2) flow) period) digest) from_node
  | Executed { task; period; output_digest } ->
    mix (word (word (word link 3) task) period) output_digest

type t = {
  log_owner : int;
  mutable rev_entries : entry list;
  chain : Bytes.t;
      (* the head, in 8 bytes: a mutable [int64] field would hold it
         boxed, one fresh box per append *)
  mutable count : int;
}

let create ~owner =
  let chain = Bytes.create 8 in
  Bytes.set_int64_ne chain 0 Auth.Chain.genesis;
  { log_owner = owner; rev_entries = []; chain; count = 0 }

let append t e =
  t.rev_entries <- e :: t.rev_entries;
  Bytes.set_int64_ne t.chain 0 (extend (Bytes.get_int64_ne t.chain 0) e);
  t.count <- t.count + 1

let length t = t.count
let head t = Bytes.get_int64_ne t.chain 0
let entries t = List.rev t.rev_entries

type checkpoint = {
  cp_owner : int;
  cp_length : int;
  cp_head : Auth.Chain.link;
  cp_tag : Auth.tag;
}

let checkpoint_message ~owner ~length ~head =
  let b =
    Bytes.create
      (13 + Digits.dec_width owner + Digits.dec_width length + Digits.hex64_width head)
  in
  let pos = Digits.put_dec b (Digits.put_string b 0 "checkpoint|") owner in
  let pos = Digits.put_dec b (Digits.put_string b pos "|") length in
  ignore (Digits.put_hex64 b (Digits.put_string b pos "|") head : int);
  Bytes.unsafe_to_string b

let checkpoint t auth secret =
  if Auth.owner_of_secret secret <> t.log_owner then
    invalid_arg "Authlog.checkpoint: secret does not belong to the log owner";
  {
    cp_owner = t.log_owner;
    cp_length = t.count;
    cp_head = head t;
    cp_tag =
      Auth.sign auth secret
        (checkpoint_message ~owner:t.log_owner ~length:t.count ~head:(head t));
  }

let verify_checkpoint auth cp =
  Auth.verify auth ~signer:cp.cp_owner
    (checkpoint_message ~owner:cp.cp_owner ~length:cp.cp_length ~head:cp.cp_head)
    cp.cp_tag

type audit_result = Consistent | Tampered of { at_length : int } | Truncated

let audit cp presented =
  if List.length presented < cp.cp_length then Truncated
  else begin
    (* Fold the chain over exactly the committed prefix. *)
    let rec walk chain n = function
      | _ when n = cp.cp_length ->
        if Int64.equal chain cp.cp_head then Consistent
        else Tampered { at_length = n }
      | [] -> Truncated
      | e :: rest ->
        let chain' = extend chain e in
        (* Early exit is impossible without per-entry commitments, so
           mismatches surface only at the committed head. *)
        walk chain' (n + 1) rest
    in
    walk Auth.Chain.genesis 0 presented
  end
