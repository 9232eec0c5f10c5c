open Btr_util
module Auth = Btr_crypto.Auth
module Obs = Btr_obs.Obs

type fault_class =
  | Wrong_value
  | Omission
  | Omission_suspected
  | Timing
  | Equivocation
  | Forged_evidence

let fault_class_name = function
  | Wrong_value -> "wrong-value"
  | Omission -> "omission"
  | Omission_suspected -> "omission-suspected"
  | Timing -> "timing"
  | Equivocation -> "equivocation"
  | Forged_evidence -> "forged-evidence"

type accused = Node of int | Path of int * int

let path a b = if a <= b then Path (a, b) else Path (b, a)

let accused_name = function
  | Node n -> Printf.sprintf "node:%d" n
  | Path (a, b) -> Printf.sprintf "path:%d-%d" a b

type statement = {
  accused : accused;
  fault_class : fault_class;
  detector : int;
  period : int;
  detected_at : Time.t;
  detail : string;
}

(* The bytes of [Printf.sprintf "%s|%s|det:%d|p:%d|t:%d|%s"] over
   [accused_name], [fault_class_name], detector, period, detection time
   and detail, measured first and written into one allocation. The
   length is also the statement's share of the wire size. *)
let encoded_length s =
  let accused =
    match s.accused with
    | Node n -> 5 + Digits.dec_width n
    | Path (a, b) -> 6 + Digits.dec_width a + Digits.dec_width b
  in
  accused + String.length (fault_class_name s.fault_class)
  + Digits.dec_width s.detector + Digits.dec_width s.period
  + Digits.dec_width s.detected_at + String.length s.detail + 13

let encode s =
  let b = Bytes.create (encoded_length s) in
  let pos =
    match s.accused with
    | Node n -> Digits.put_dec b (Digits.put_string b 0 "node:") n
    | Path (x, y) ->
      let pos = Digits.put_dec b (Digits.put_string b 0 "path:") x in
      Bytes.unsafe_set b pos '-';
      Digits.put_dec b (pos + 1) y
  in
  let pos = Digits.put_string b pos "|" in
  let pos = Digits.put_string b pos (fault_class_name s.fault_class) in
  let pos = Digits.put_dec b (Digits.put_string b pos "|det:") s.detector in
  let pos = Digits.put_dec b (Digits.put_string b pos "|p:") s.period in
  let pos = Digits.put_dec b (Digits.put_string b pos "|t:") s.detected_at in
  ignore (Digits.put_string b (Digits.put_string b pos "|") s.detail : int);
  Bytes.unsafe_to_string b

type record = { statement : statement; tag : Auth.tag }

let sign auth secret statement =
  if Auth.owner_of_secret secret <> statement.detector then
    invalid_arg "Evidence.sign: detector must sign its own statements";
  { statement; tag = Auth.sign auth secret (encode statement) }

let validate auth r =
  Auth.verify auth ~signer:r.statement.detector (encode r.statement) r.tag

let size_bytes r = encoded_length r.statement + 16

let dedup_key r = encode r.statement

module Distributor = struct
  type verdict = Fresh | Duplicate | Invalid

  let verdict_name = function
    | Fresh -> "fresh"
    | Duplicate -> "duplicate"
    | Invalid -> "invalid"

  type t = {
    node : int;
    obs : Obs.t;
    fresh_count : Obs.Counter.t;
    dedup_count : Obs.Counter.t;
    invalid_count : Obs.Counter.t;
    seen_keys : (string, unit) Hashtbl.t;
    mutable rev_seen : record list;
    invalid_by : (int, int) Hashtbl.t;
  }

  let create ~node ?(obs = Obs.null) () =
    let reg = Obs.registry obs in
    {
      node;
      obs;
      fresh_count = Obs.Registry.counter reg Obs.Evidence "records-admitted";
      dedup_count = Obs.Registry.counter reg Obs.Evidence "dedup-hits";
      invalid_count = Obs.Registry.counter reg Obs.Evidence "validation-failures";
      seen_keys = Hashtbl.create 32;
      rev_seen = [];
      invalid_by = Hashtbl.create 8;
    }

  (* The statement is encoded once: the signature covers the encoding,
     and it is also the dedup key. *)
  let admit ?now t auth r =
    let encoded = encode r.statement in
    let verdict =
      if not (Auth.verify auth ~signer:r.statement.detector encoded r.tag) then begin
        let signer = r.statement.detector in
        let prev = Option.value ~default:0 (Hashtbl.find_opt t.invalid_by signer) in
        Hashtbl.replace t.invalid_by signer (prev + 1);
        Obs.Counter.incr t.invalid_count;
        Invalid
      end
      else begin
        if Hashtbl.mem t.seen_keys encoded then begin
          Obs.Counter.incr t.dedup_count;
          Duplicate
        end
        else begin
          Hashtbl.replace t.seen_keys encoded ();
          t.rev_seen <- r :: t.rev_seen;
          Obs.Counter.incr t.fresh_count;
          Fresh
        end
      end
    in
    (match now with
    | Some at when Obs.enabled t.obs ->
      Obs.emit t.obs ~at ~node:t.node Obs.Evidence
        (Obs.Evidence_admitted
           {
             verdict = verdict_name verdict;
             detector = r.statement.detector;
             accused = accused_name r.statement.accused;
           })
    | _ -> ());
    verdict

  let seen t = List.rev t.rev_seen

  let invalid_count_from t n =
    Option.value ~default:0 (Hashtbl.find_opt t.invalid_by n)
end
