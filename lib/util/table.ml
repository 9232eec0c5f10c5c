type t = {
  title : string;
  header : string list;
  mutable rev_rows : string list list;
}

let create ~title ~header = { title; header; rev_rows = [] }

let add_row t row =
  let width = List.length t.header in
  let padded =
    if List.length row >= width then row
    else row @ List.init (width - List.length row) (fun _ -> "")
  in
  t.rev_rows <- padded :: t.rev_rows

let render t =
  let rows = List.rev t.rev_rows in
  let all = t.header :: rows in
  let ncols = List.length t.header in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some s -> Stdlib.max acc (String.length s)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let buf = Buffer.create 256 in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let line row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad cell (List.nth widths i)))
      row;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  line t.header;
  let total = List.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter line rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let cell_f x = Printf.sprintf "%.3f" x
let cell_pct x = Printf.sprintf "%.1f%%" x

(* Order-stable hashtable traversal. Hashtbl.iter/fold order depends on
   the table's insertion history, so any result that reaches a trace,
   an error message or a JSON document must go through these instead
   (btr_lint's hashtbl-order rule enforces it repo-wide). *)

let sorted_bindings ~cmp h =
  (* btr-lint: allow hashtbl-order — this is the sorted helper itself *)
  let bindings = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] in
  List.sort (fun (a, _) (b, _) -> cmp a b) bindings

let sorted_keys ~cmp h = List.map fst (sorted_bindings ~cmp h)

let sorted_iter ~cmp f h =
  List.iter (fun (k, v) -> f k v) (sorted_bindings ~cmp h)

let sorted_fold ~cmp f h init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (sorted_bindings ~cmp h)
