module Fault_set = struct
  type t = {
    mutable node_list : int list;  (* sorted *)
    mutable path_list : (int * int) list;
    (* path -> suspected endpoints (sorted); only suspect-carrying
       paths are actionable for mode switching. *)
    mutable suspect_list : ((int * int) * int list) list;
  }

  let create () = { node_list = []; path_list = []; suspect_list = [] }

  let add_node t n =
    if List.mem n t.node_list then false
    else begin
      t.node_list <- List.sort Int.compare (n :: t.node_list);
      true
    end

  let norm (a, b) = if a <= b then (a, b) else (b, a)

  let cmp_path (a1, b1) (a2, b2) =
    match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

  let suspects_of t p =
    match
      List.find_opt (fun (q, _) -> cmp_path q (norm p) = 0) t.suspect_list
    with
    | Some (_, s) -> s
    | None -> []

  let add_path ?suspect t p =
    let p = norm p in
    let path_new = not (List.mem p t.path_list) in
    if path_new then
      t.path_list <- List.sort cmp_path (p :: t.path_list);
    let suspect_new =
      match suspect with
      | None -> false
      | Some s ->
        let a, b = p in
        if s <> a && s <> b then false
        else begin
          let prev = suspects_of t p in
          if List.mem s prev then false
          else begin
            let merged = List.sort Int.compare (s :: prev) in
            t.suspect_list <-
              List.sort
                (fun (p1, _) (p2, _) -> cmp_path p1 p2)
                ((p, merged)
                :: List.filter (fun (q, _) -> cmp_path q p <> 0) t.suspect_list);
            true
          end
        end
    in
    path_new || suspect_new

  let nodes t = t.node_list
  let mem_node t n = List.mem n t.node_list
  let mem_path t p = List.mem (norm p) t.path_list

  let union t other =
    let changed = ref false in
    List.iter (fun n -> if add_node t n then changed := true) other.node_list;
    List.iter (fun p -> if add_path t p then changed := true) other.path_list;
    List.iter
      (fun (p, ss) ->
        List.iter (fun s -> if add_path ~suspect:s t p then changed := true) ss)
      other.suspect_list;
    !changed

  (* All k-subsets of a sorted list, in lexicographic order. *)
  let rec combos k lst =
    if k = 0 then [ [] ]
    else
      match lst with
      | [] -> []
      | x :: rest -> List.map (fun c -> x :: c) (combos (k - 1) rest) @ combos k rest

  let target t ~f =
    let attributed = t.node_list in
    let covered_by s (a, b) = List.mem a s || List.mem b s in
    (* Paths whose omission is already explained by an attributed node
       need no further action; the rest must be covered by evicting a
       small set of additional nodes — each candidate cover member is an
       endpoint of some such path, so the paper's self-incrimination
       argument applies (a liar's bogus paths all share the liar). *)
    let uncovered =
      List.filter (fun (p, _) -> not (covered_by attributed p)) t.suspect_list
    in
    match uncovered with
    | [] -> attributed
    | _ ->
      let budget = f - List.length attributed in
      if budget <= 0 then attributed
      else begin
        let endpoints =
          List.sort_uniq Int.compare
            (List.concat_map (fun ((a, b), _) -> [ a; b ]) uncovered)
        in
        let suspects =
          List.sort_uniq Int.compare (List.concat_map snd uncovered)
        in
        let non_suspects s =
          List.length (List.filter (fun n -> not (List.mem n suspects)) s)
        in
        let best = ref [] in
        (try
           for k = 1 to min budget (List.length endpoints) do
             List.iter
               (fun s ->
                 if List.for_all (fun (p, _) -> covered_by s p) uncovered then
                   match !best with
                   | [] -> best := s
                   | b -> if non_suspects s < non_suspects b then best := s)
               (combos k endpoints);
             (* Minimal size wins outright; preferences only break ties
                within one size class. *)
             match !best with [] -> () | _ -> raise Exit
           done
         with Exit -> ());
        match !best with
        | [] ->
          (* No cover fits the fault budget: evicting a partial guess
             could frame correct nodes without restoring the bound, so
             act only on what is attributed. *)
          attributed
        | cover -> List.sort_uniq Int.compare (attributed @ cover)
      end
end
