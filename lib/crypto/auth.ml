open Btr_util

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

(* A [for] loop rather than [String.iter]: a [ref] captured by a closure
   is heap-allocated, and every step would then box two [Int64]s. *)
let digest_into acc s =
  let h = ref acc in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

let digest s = digest_into fnv_offset s

type secret = { owner : int; key : int64 }
type tag = { signer : int; value : int64 }
type cost_model = { sign_cost : Time.t; verify_cost : Time.t }

let default_costs = { sign_cost = Time.us 50; verify_cost = Time.us 20 }

type t = { keys : (int, int64) Hashtbl.t; costs : cost_model; key_rng : Rng.t }

let create ?(costs = default_costs) () =
  { keys = Hashtbl.create 16; costs; key_rng = Rng.create 0x5EC4E7 }

let gen_key t ~owner =
  if Hashtbl.mem t.keys owner then
    invalid_arg (Printf.sprintf "Auth.gen_key: owner %d already registered" owner);
  let key = Rng.bits64 t.key_rng in
  Hashtbl.replace t.keys owner key;
  { owner; key }

let owner_of_secret s = s.owner

let mac key msg =
  (* Keyed digest: mix the key into both ends so extension attacks on the
     toy digest cannot matter even in principle. *)
  let open Int64 in
  let inner = digest_into (logxor fnv_offset key) msg in
  mul (logxor inner (shift_right_logical key 17)) fnv_prime

let sign _t secret msg = { signer = secret.owner; value = mac secret.key msg }

let verify t ~signer msg tag =
  tag.signer = signer
  &&
  match Hashtbl.find_opt t.keys signer with
  | None -> false
  | Some key -> Int64.equal (mac key msg) tag.value

let sign_cost t = t.costs.sign_cost
let verify_cost t = t.costs.verify_cost

let forge_tag () = { signer = -1; value = 0xDEADBEEFL }

module Chain = struct
  type link = int64

  let genesis = fnv_offset
  let prime = fnv_prime
  let mix link x = Int64.mul (Int64.logxor link x) prime
end
