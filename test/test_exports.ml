(* Unreferenced-export guard: every [val] in a lib/ interface must be
   used, as a value, by some file outside its own module's .ml and .mli
   (another library module, the CLI, the benches, the examples or the
   tests).

   Sources are parsed with ppxlib and only value paths ([Pexp_ident])
   count. An export [M.v], or [M.N.v] for a module [N] nested in [M], is
   used by:
   - a path [....M.v] or [....N.v], after resolving the file's
     [module X = ...] aliases;
   - a bare [v] in a scope that opens or includes [M] or [N];
   - a path [X.v] where [X] is a first-class module or a functor
     parameter, if some file packs [M] or [N] as a first-class module
     ([(module M)]) or passes it to a functor: [X] could be any of
     those.
   Field accesses, labels, local bindings, strings and comments do not
   count. *)

open Ppxlib

let roots = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

(* Exports no other file uses, each kept for a stated reason. *)
let allowlist : (string * string * string) list = []

let rec walk path acc =
  if Sys.is_directory path then
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        if String.length entry > 0 && (entry.[0] = '_' || entry.[0] = '.') then acc
        else walk (Filename.concat path entry) acc)
      acc entries
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then
    path :: acc
  else acc

let parse path parser =
  let src = In_channel.with_open_bin path In_channel.input_all in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  match parser lexbuf with
  | ast -> ast
  | exception exn -> Alcotest.failf "%s: parse error (%s)" path (Printexc.to_string exn)

(* What a module path names: the modules it may be, each by its last
   name component (a stdlib name such as [List] matches no export), or
   [Unknown] for a first-class module or a functor parameter. *)
type resolution = Modules of string list | Unknown

let join rs =
  if List.mem Unknown rs then Unknown
  else Modules (List.concat_map (function Modules ms -> ms | Unknown -> []) rs)

type env = { aliases : (string * resolution) list; opens : resolution list }

let rec resolve env unpacked = function
  | Lident x -> (
    match List.assoc_opt x env.aliases with
    | Some r -> r
    | None -> if List.mem x unpacked then Unknown else Modules [ x ])
  | Ldot (p, x) -> (
    match resolve env unpacked p with Unknown -> Unknown | Modules _ -> Modules [ x ])
  | Lapply _ -> Modules []

(* A [struct] stands for the modules it includes. *)
let rec resolve_mod env unpacked me =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> resolve env unpacked txt
  | Pmod_constraint (me, _) -> resolve_mod env unpacked me
  | Pmod_unpack _ -> Unknown
  | Pmod_structure items ->
    join
      (List.filter_map
         (fun item ->
           match item.pstr_desc with
           | Pstr_include { pincl_mod; _ } -> Some (resolve_mod env unpacked pincl_mod)
           | _ -> None)
         items)
  | _ -> Modules []

(* Names bound by [(module X)] patterns anywhere in [str]. *)
let unpacked_names str =
  let names = ref [] in
  let collect =
    object
      inherit Ast_traverse.iter as super

      method! pattern p =
        (match p.ppat_desc with
        | Ppat_unpack { txt = Some x; _ } -> names := x :: !names
        | _ -> ());
        super#pattern p
    end
  in
  collect#structure str;
  !names

(* Calls [use r v] for every value path of [str]: [r] is what the path's
   module part may name, or what an enclosing open may name for a bare
   [v]. Calls [pack r] for every module [str] packs as a first-class
   module or passes to a functor. *)
let iter_uses str ~use ~pack =
  let unpacked = unpacked_names str in
  let env = ref { aliases = []; opens = [] } in
  let scoped f =
    let saved = !env in
    f ();
    env := saved
  in
  let bind x r = env := { !env with aliases = (x, r) :: !env.aliases } in
  let open_ r = env := { !env with opens = r :: !env.opens } in
  let walker =
    object (self)
      inherit Ast_traverse.iter as super

      method! structure items = scoped (fun () -> List.iter self#structure_item items)

      method! structure_item item =
        match item.pstr_desc with
        | Pstr_module { pmb_name = { txt = Some x; _ }; pmb_expr; _ } ->
          self#module_expr pmb_expr;
          bind x (resolve_mod !env unpacked pmb_expr)
        | Pstr_open { popen_expr = me; _ } | Pstr_include { pincl_mod = me; _ } ->
          self#module_expr me;
          open_ (resolve_mod !env unpacked me)
        | _ -> super#structure_item item

      method! module_expr me =
        match me.pmod_desc with
        | Pmod_functor (Named ({ txt = Some x; _ }, mty), body) ->
          self#module_type mty;
          scoped (fun () ->
              bind x Unknown;
              self#module_expr body)
        | Pmod_apply (_, arg) ->
          super#module_expr me;
          pack (resolve_mod !env unpacked arg)
        | _ -> super#module_expr me

      method! expression e =
        match e.pexp_desc with
        | Pexp_ident { txt = Lident v; _ } -> List.iter (fun r -> use r v) !env.opens
        | Pexp_ident { txt = Ldot (p, v); _ } -> use (resolve !env unpacked p) v
        | Pexp_pack me ->
          self#module_expr me;
          pack (resolve_mod !env unpacked me)
        | Pexp_open ({ popen_expr = me; _ }, body) ->
          self#module_expr me;
          scoped (fun () ->
              open_ (resolve_mod !env unpacked me);
              self#expression body)
        | Pexp_letmodule ({ txt = Some x; _ }, me, body) ->
          self#module_expr me;
          scoped (fun () ->
              bind x (resolve_mod !env unpacked me);
              self#expression body)
        | _ -> super#expression e
    end
  in
  walker#structure str

(* (module path, value) of every [val] in [items], nested signatures
   included. *)
let rec vals path items =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value { pval_name = { txt; _ }; _ } -> [ (path, txt) ]
      | Psig_module { pmd_name = { txt = Some n; _ }; pmd_type; _ } -> (
        match pmd_type.pmty_desc with
        | Pmty_signature s -> vals (path @ [ n ]) s
        | _ -> [])
      | _ -> [])
    items

(* (module path, value, interface path) of every export no file outside
   its own module uses. *)
let unreferenced ~root =
  let files =
    List.sort String.compare
      (List.concat_map (fun r -> walk (Filename.concat root r) []) roots)
  in
  (* (module name, value) -> files using it; value -> files using it
     through a first-class module or a functor parameter, which may be
     any of the [packed] modules. *)
  let users = Hashtbl.create 4096 and dynamic = Hashtbl.create 64 in
  let packed = ref [] in
  let find tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  let add tbl k f = Hashtbl.replace tbl k (f :: find tbl k) in
  List.iter
    (fun f ->
      if Filename.check_suffix f ".ml" then
        iter_uses (parse f Parse.implementation)
          ~use:(fun r v ->
            match r with
            | Unknown -> add dynamic v f
            | Modules ms -> List.iter (fun m -> add users (m, v) f) ms)
          ~pack:(function Modules ms -> packed := ms @ !packed | Unknown -> ()))
    files;
  let lib = Filename.concat root "lib" ^ Filename.dir_sep in
  List.concat_map
    (fun mli ->
      if Filename.check_suffix mli ".mli" && String.starts_with ~prefix:lib mli then
        let own = [ mli; Filename.chop_suffix mli ".mli" ^ ".ml" ] in
        let modname =
          String.capitalize_ascii (Filename.chop_suffix (Filename.basename mli) ".mli")
        in
        List.filter_map
          (fun (path, v) ->
            let innermost = List.fold_left (fun _ n -> n) modname path in
            let through_packs =
              if List.mem innermost !packed then find dynamic v else []
            in
            if List.for_all (fun f -> List.mem f own) (find users (innermost, v) @ through_packs)
            then
              Some (String.concat "." (modname :: path), v, mli)
            else None)
          (vals [] (parse mli Parse.interface))
      else [])
    files

let test_no_unreferenced_exports () =
  let root = Filename.parent_dir_name in
  if not (Sys.file_exists (Filename.concat root "lib")) then
    Alcotest.failf "no lib/ under %s" root;
  let found = unreferenced ~root in
  let allowed (m, v, _) = List.exists (fun (m', v', _) -> m = m' && v = v') allowlist in
  let dead = List.filter (fun e -> not (allowed e)) found in
  let stale =
    List.filter
      (fun (m, v, _) -> not (List.exists (fun (m', v', _) -> m = m' && v = v') found))
      allowlist
  in
  if dead <> [] || stale <> [] then
    Alcotest.failf "%s"
      (String.concat "\n"
         (List.map
            (fun (m, v, mli) ->
              Printf.sprintf "%s.%s (%s) is named by no file outside its module" m v mli)
            dead
         @ List.map
             (fun (m, v, _) ->
               Printf.sprintf "allowlist entry %s.%s is referenced or gone: drop it" m v)
             stale))

(* What one source uses under the rules above: words that are not value
   paths count for nothing. *)
let test_uses_are_value_paths () =
  let src =
    {|module R = Btr.Runtime
let a t ~golden = (t.golden, golden, "Runtime.golden")
(* Runtime.golden *)
let b rt = R.obs rt
let c () = Metrics.(counts)
let d (module E : ENGINE) = E.step
let e () = run_script (module Engine)
|}
  in
  let show = function Unknown -> "?" | Modules ms -> String.concat "|" ms in
  let uses = ref [] and packs = ref [] in
  iter_uses
    (Parse.implementation (Lexing.from_string src))
    ~use:(fun r v -> uses := (show r ^ "." ^ v) :: !uses)
    ~pack:(fun r -> packs := show r :: !packs);
  Alcotest.(check (list string))
    "uses" [ "Runtime.obs"; "Metrics.counts"; "?.step" ] (List.rev !uses);
  Alcotest.(check (list string)) "packed" [ "Engine" ] !packs

let suite =
  [
    ("every lib/ export is named outside its module", `Quick, test_no_unreferenced_exports);
    ("uses are value paths, not words", `Quick, test_uses_are_value_paths);
  ]
