type value = Int of int | Float of float | Str of string | Bool of bool

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_quoted b s =
  Buffer.add_char b '"';
  escape b s;
  Buffer.add_char b '"'

(* Shortest decimal form that parses back to the same float: try the
   15-digit form first, fall back to the always-exact 17 digits. Only
   meaningful for finite floats — no writer emits non-finite values.
   Integral floats keep a trailing '.' so the token stays float-shaped:
   "1" would re-parse as Int and break round-tripping. *)
let float_repr f =
  let s = Printf.sprintf "%.15g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ "."

let to_string fields =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      add_quoted b k;
      Buffer.add_char b ':';
      match v with
      | Int i -> Buffer.add_string b (string_of_int i)
      | Float f -> Buffer.add_string b (float_repr f)
      | Str s -> add_quoted b s
      | Bool v -> Buffer.add_string b (if v then "true" else "false"))
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> true
      | _ -> false
    do
      advance ()
    done
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        let unescaped c =
          Buffer.add_char b c;
          advance ();
          go ()
        in
        match peek () with
        | Some ('"' | '\\' | '/' as c) -> unescaped c
        | Some 'n' -> unescaped '\n'
        | Some 'r' -> unescaped '\r'
        | Some 't' -> unescaped '\t'
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
          if not (String.for_all is_hex hex) then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ hex) in
          Buffer.add_char b (if code < 0x80 then Char.chr code else '?');
          pos := !pos + 4;
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_scalar () =
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some ('-' | '0' .. '9') ->
      let start = !pos in
      let is_num = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while match peek () with Some c -> is_num c | None -> false do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      (match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" tok)))
    | _ -> fail "expected a scalar value"
  in
  try
    skip_ws ();
    expect '{';
    skip_ws ();
    let fields = ref [] in
    (match peek () with
    | Some '}' -> advance ()
    | _ ->
      let rec members () =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        skip_ws ();
        let v = parse_scalar () in
        fields := (key, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      members ());
    skip_ws ();
    if !pos <> n then fail "trailing input";
    Ok (List.rev !fields)
  with Bad m -> Error m

let int_of fields k = match List.assoc_opt k fields with Some (Int i) -> Some i | _ -> None
let str_of fields k = match List.assoc_opt k fields with Some (Str s) -> Some s | _ -> None
let bool_of fields k = match List.assoc_opt k fields with Some (Bool b) -> Some b | _ -> None
