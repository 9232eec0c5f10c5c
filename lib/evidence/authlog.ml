module Auth = Btr_crypto.Auth

type entry =
  | Sent of { flow : int; period : int; digest : int64 }
  | Received of { flow : int; period : int; digest : int64; from_node : int }
  | Executed of { task : int; period : int; output_digest : int64 }

let word link n = Auth.Chain.mix link (Int64.of_int n)

(* The chain step for one entry: its constructor tag, then each field as
   a 64-bit word, through {!Auth.Chain.mix}. *)
let extend link e =
  match e with
  | Sent { flow; period; digest } ->
    Auth.Chain.mix (word (word (word link 1) flow) period) digest
  | Received { flow; period; digest; from_node } ->
    word (Auth.Chain.mix (word (word (word link 2) flow) period) digest) from_node
  | Executed { task; period; output_digest } ->
    Auth.Chain.mix (word (word (word link 3) task) period) output_digest

type t = {
  log_owner : int;
  mutable rev_entries : entry list;
  mutable chain : Auth.Chain.link;
  mutable count : int;
}

let create ~owner =
  { log_owner = owner; rev_entries = []; chain = Auth.Chain.genesis; count = 0 }

let owner t = t.log_owner

let append t e =
  t.rev_entries <- e :: t.rev_entries;
  t.chain <- extend t.chain e;
  t.count <- t.count + 1

let length t = t.count
let head t = t.chain
let entries t = List.rev t.rev_entries

type checkpoint = {
  cp_owner : int;
  cp_length : int;
  cp_head : Auth.Chain.link;
  cp_tag : Auth.tag;
}

let checkpoint_message ~owner ~length ~head =
  Printf.sprintf "checkpoint|%d|%d|%Lx" owner length head

let checkpoint t auth secret =
  if Auth.owner_of_secret secret <> t.log_owner then
    invalid_arg "Authlog.checkpoint: secret does not belong to the log owner";
  {
    cp_owner = t.log_owner;
    cp_length = t.count;
    cp_head = t.chain;
    cp_tag =
      Auth.sign auth secret
        (checkpoint_message ~owner:t.log_owner ~length:t.count ~head:t.chain);
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
