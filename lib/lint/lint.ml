type rule =
  | Hashtbl_order
  | Poly_compare
  | Wall_clock
  | Raw_random
  | Fingerprint_order

let all_rules =
  [ Hashtbl_order; Poly_compare; Wall_clock; Raw_random; Fingerprint_order ]

let rule_name = function
  | Hashtbl_order -> "hashtbl-order"
  | Poly_compare -> "poly-compare"
  | Wall_clock -> "wall-clock"
  | Raw_random -> "raw-random"
  | Fingerprint_order -> "fingerprint-order"

let rule_of_name n = List.find_opt (fun r -> rule_name r = n) all_rules

let rule_id = function
  | Hashtbl_order -> "BTR-L001"
  | Poly_compare -> "BTR-L002"
  | Wall_clock -> "BTR-L003"
  | Raw_random -> "BTR-L004"
  | Fingerprint_order -> "BTR-L005"

let describe = function
  | Hashtbl_order ->
    "Hashtbl and Inttbl iteration order depends on insertion history; use \
     Btr_util.Table.sorted_iter/sorted_fold/sorted_keys/sorted_bindings or \
     Inttbl.sorted_keys"
  | Poly_compare ->
    "polymorphic comparison silently changes meaning as types evolve; use a \
     typed compare (Int.compare, String.compare, a domain cmp)"
  | Wall_clock ->
    "wall-clock readings do not replay; simulated time lives in Btr_util.Time"
  | Raw_random ->
    "the global Random state is unseeded and unsplittable; use Btr_util.Rng"
  | Fingerprint_order ->
    "a Hashtbl iterator feeding an Fnv fingerprint bakes nondeterministic \
     order into a memo key; sort the bindings (Table.sorted_*) before hashing"

type finding = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  message : string;
}

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col (rule_id f.rule)
    f.message

(* ------------------------------------------------------------------ *)
(* Suppression directives.

   Comments do not survive parsing, so we scan the raw source for
   [btr-lint: allow <rule>] inside comments, tracking comment nesting
   and skipping string/char literals so a "(*" inside a string cannot
   confuse us. A directive suppresses its rule from the comment's first
   line through the line after it closes (covering both trailing
   same-line comments and a comment block above the offending line). *)

type suppression = { s_rule : rule; from_line : int; to_line : int }

let directives_in text =
  let needle = "btr-lint:" in
  let n = String.length text and k = String.length needle in
  let rules = ref [] in
  let i = ref 0 in
  while !i + k <= n do
    if String.sub text !i k = needle then begin
      let j = ref (!i + k) in
      while !j < n && text.[!j] = ' ' do incr j done;
      if !j + 5 <= n && String.sub text !j 5 = "allow" then begin
        j := !j + 5;
        while !j < n && text.[!j] = ' ' do incr j done;
        let start = !j in
        while
          !j < n && (text.[!j] = '-' || (text.[!j] >= 'a' && text.[!j] <= 'z'))
        do
          incr j
        done;
        match rule_of_name (String.sub text start (!j - start)) with
        | Some r -> rules := r :: !rules
        | None -> ()
      end;
      i := !j
    end
    else incr i
  done;
  !rules

let scan_suppressions src =
  let n = String.length src in
  let line = ref 1 in
  let sups = ref [] in
  let i = ref 0 in
  let peek o = if !i + o < n then Some src.[!i + o] else None in
  (* Skip a string literal starting at !i (which points at '"'). *)
  let skip_string () =
    incr i;
    let fin = ref false in
    while not !fin && !i < n do
      (match src.[!i] with
      | '\\' ->
        (* A backslash-newline continues the literal on the next line. *)
        if !i + 1 < n && src.[!i + 1] = '\n' then incr line;
        incr i
      | '"' -> fin := true
      | '\n' -> incr line
      | _ -> ());
      incr i
    done
  in
  (* Skip a quoted string literal {id|...|id} starting at '{'. Returns
     false (without consuming) when this '{' does not open one. *)
  let skip_quoted_string () =
    let j = ref (!i + 1) in
    while !j < n && src.[!j] >= 'a' && src.[!j] <= 'z' do incr j done;
    if !j < n && src.[!j] = '|' then begin
      let id = String.sub src (!i + 1) (!j - !i - 1) in
      let closing = "|" ^ id ^ "}" in
      let ck = String.length closing in
      i := !j + 1;
      let fin = ref false in
      while not !fin && !i < n do
        if !i + ck <= n && String.sub src !i ck = closing then begin
          i := !i + ck;
          fin := true
        end
        else begin
          if src.[!i] = '\n' then incr line;
          incr i
        end
      done;
      true
    end
    else false
  in
  while !i < n do
    match src.[!i] with
    | '\n' ->
      incr line;
      incr i
    | '"' -> skip_string ()
    | '{' -> if not (skip_quoted_string ()) then incr i
    | '\'' -> (
      (* Char literal or type variable/label quote. *)
      match (peek 1, peek 2) with
      | Some '\\', _ ->
        i := !i + 2;
        while !i < n && src.[!i] <> '\'' do incr i done;
        incr i
      | Some c, Some '\'' ->
        if c = '\n' then incr line;
        i := !i + 3
      | _ ->
        incr i)
    | '(' when peek 1 = Some '*' ->
      let start_line = !line in
      let buf = Buffer.create 64 in
      let depth = ref 1 in
      i := !i + 2;
      while !depth > 0 && !i < n do
        if src.[!i] = '(' && peek 1 = Some '*' then begin
          incr depth;
          i := !i + 2
        end
        else if src.[!i] = '*' && peek 1 = Some ')' then begin
          decr depth;
          i := !i + 2
        end
        else if src.[!i] = '"' then skip_string ()
        else begin
          if src.[!i] = '\n' then incr line;
          Buffer.add_char buf src.[!i];
          incr i
        end
      done;
      List.iter
        (fun r ->
          sups :=
            { s_rule = r; from_line = start_line; to_line = !line + 1 } :: !sups)
        (directives_in (Buffer.contents buf))
    | _ -> incr i
  done;
  !sups

(* ------------------------------------------------------------------ *)
(* The AST walk. *)

let exempt_path ~file rule =
  match rule with
  | Wall_clock | Raw_random ->
    let norm = String.map (fun c -> if c = '\\' then '/' else c) file in
    let suffix = "lib/util/rng.ml" in
    let ln = String.length norm and ls = String.length suffix in
    norm = "rng.ml" || (ln >= ls && String.sub norm (ln - ls) ls = suffix)
  | Hashtbl_order | Poly_compare | Fingerprint_order -> false

let hashtbl_iterators = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

(* Entry points of the Btr_util.Fnv fingerprinting API. An unordered
   Hashtbl iterator anywhere inside their argument expressions bakes
   nondeterministic order into a fingerprint — the memo-key soundness
   hazard BTR-L005 exists to catch. *)
let fnv_entry path =
  let stripped =
    match path with
    | "Stdlib" :: rest | "Btr_util" :: rest -> rest
    | p -> p
  in
  match stripped with
  | [ "Fnv"; ("hash" | "hash64" | "hash64_lines") ] -> true
  | _ -> false

let classify path =
  let stripped = match path with ("Stdlib" | "Btr_util") :: rest -> rest | p -> p in
  match stripped with
  | [ (("Hashtbl" | "Inttbl") as tbl); fn ] when List.mem fn hashtbl_iterators ->
    Some
      ( Hashtbl_order,
        Printf.sprintf
          "%s.%s observes nondeterministic order; use Table.sorted_* or \
           Inttbl.sorted_keys (or annotate: btr-lint: allow hashtbl-order)"
          tbl fn )
  | [ "compare" ] ->
    Some
      ( Poly_compare,
        "bare polymorphic compare; use a typed compare (Int.compare, a \
         domain cmp)" )
  | [ ("=" | "<>") ] ->
    Some
      ( Poly_compare,
        "polymorphic equality passed first-class; use a typed equality" )
  | [ "Sys"; ("time" | "cpu_time") ] | [ "Unix"; ("time" | "gettimeofday") ] ->
    Some
      ( Wall_clock,
        Printf.sprintf "%s reads the wall clock; simulated time is \
                        Btr_util.Time"
          (String.concat "." stripped) )
  | "Random" :: _ :: _ ->
    Some
      ( Raw_random,
        Printf.sprintf "%s uses the global Random state; use Btr_util.Rng"
          (String.concat "." path) )
  | _ -> None

let lint_structure ~file ~suppressions str =
  let findings = ref [] in
  let suppressed line rule =
    exempt_path ~file rule
    || List.exists
         (fun s -> s.s_rule = rule && s.from_line <= line && line <= s.to_line)
         suppressions
  in
  let add (loc : Ppxlib.Location.t) rule message =
    let line = loc.loc_start.pos_lnum in
    if not (suppressed line rule) then
      findings :=
        {
          file;
          line;
          col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
          rule;
          message;
        }
        :: !findings
  in
  let walker =
    object (self)
      inherit Ppxlib.Ast_traverse.iter as super

      (* > 0 while visiting the arguments of an Fnv fingerprint call;
         Hashtbl iterators found there also violate BTR-L005. *)
      val mutable fnv_depth = 0

      method! expression e =
        match e.pexp_desc with
        | Pexp_apply
            ( { pexp_desc = Pexp_ident { txt = Lident ("=" | "<>"); _ }; _ },
              ([ _; _ ] as args) ) ->
          (* Fully-applied infix structural equality is pervasive and
             mostly fine on ints/strings; first-class and sectioned
             uses are flagged. *)
          List.iter (fun (_, a) -> self#expression a) args
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
          when fnv_entry (Ppxlib.Longident.flatten_exn txt) ->
          fnv_depth <- fnv_depth + 1;
          List.iter (fun (_, a) -> self#expression a) args;
          fnv_depth <- fnv_depth - 1
        | Pexp_ident { txt; loc } -> (
          match classify (Ppxlib.Longident.flatten_exn txt) with
          | Some (rule, message) ->
            add loc rule message;
            if rule = Hashtbl_order && fnv_depth > 0 then
              add loc Fingerprint_order
                "Hashtbl iteration feeds an Fnv fingerprint: the hash (and \
                 any memo key built from it) depends on insertion order; \
                 sort first (Table.sorted_*)"
          | None -> ())
        | _ -> super#expression e
    end
  in
  walker#structure str;
  List.rev !findings

let lint_string ~file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  match Ppxlib.Parse.implementation lexbuf with
  | exception exn ->
    Error (Printf.sprintf "%s: parse error (%s)" file (Printexc.to_string exn))
  | str ->
    let suppressions = scan_suppressions src in
    Ok (lint_structure ~file ~suppressions str)

let lint_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | src -> lint_string ~file:path src
