(* Unreferenced-export guard: every [val] in a lib/ interface must be
   named, as a whole word, by some file outside its own module's .ml
   and .mli (another library module, the CLI, the benches, the examples
   or the tests). Word matching errs towards keeping names: a collision
   can keep a dead export alive, but never reports a live one. *)

let roots = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

(* Exports no other file names, each kept for a stated reason. *)
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

let read path = In_channel.with_open_bin path In_channel.input_all

let is_word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Distinct words of [s], in first-occurrence order. *)
let words s =
  let seen = Hashtbl.create 256 in
  let acc = ref [] in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if is_word_char s.[!i] then begin
      let j = ref !i in
      while !j < n && is_word_char s.[!j] do
        incr j
      done;
      let w = String.sub s !i (!j - !i) in
      if not (Hashtbl.mem seen w) then begin
        Hashtbl.replace seen w ();
        acc := w :: !acc
      end;
      i := !j
    end
    else incr i
  done;
  List.rev !acc

(* Names declared by [val] at the start of a line, nested signatures
   included. *)
let vals src =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if String.starts_with ~prefix:"val " line then
        match words (String.sub line 4 (String.length line - 4)) with
        | v :: _ -> Some v
        | [] -> None
      else None)
    (String.split_on_char '\n' src)

(* (module, value, interface path) of every export no file outside its
   own module names. *)
let unreferenced ~root =
  (* This file names allowlisted values; it must not count as a use. *)
  let files =
    List.sort String.compare
      (List.filter
         (fun f -> Filename.basename f <> "test_exports.ml")
         (List.concat_map (fun r -> walk (Filename.concat root r) []) roots))
  in
  let contents = List.map (fun f -> (f, read f)) files in
  let users = Hashtbl.create 4096 in
  List.iter
    (fun (f, src) ->
      List.iter
        (fun w ->
          Hashtbl.replace users w
            (f :: Option.value ~default:[] (Hashtbl.find_opt users w)))
        (words src))
    contents;
  let lib = Filename.concat root "lib" ^ Filename.dir_sep in
  List.concat_map
    (fun (mli, src) ->
      if Filename.check_suffix mli ".mli" && String.starts_with ~prefix:lib mli then
        let own = [ mli; Filename.chop_suffix mli ".mli" ^ ".ml" ] in
        let modname =
          String.capitalize_ascii (Filename.chop_suffix (Filename.basename mli) ".mli")
        in
        List.filter_map
          (fun v ->
            let outside =
              List.filter
                (fun f -> not (List.mem f own))
                (Option.value ~default:[] (Hashtbl.find_opt users v))
            in
            if outside = [] then Some (modname, v, mli) else None)
          (vals src)
      else [])
    contents

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

let suite =
  [ ("every lib/ export is named outside its module", `Quick, test_no_unreferenced_exports) ]
