type 'a t = { lo : int; slots : 'a array; absent : 'a }

let of_ids ids absent =
  match ids with
  | [] -> { lo = 0; slots = [||]; absent }
  | id :: rest ->
    let lo = List.fold_left Stdlib.min id rest and hi = List.fold_left Stdlib.max id rest in
    { lo; slots = Array.make (hi - lo + 1) absent; absent }

let get t id =
  let i = id - t.lo in
  if i >= 0 && i < Array.length t.slots then t.slots.(i) else t.absent

let set t id v =
  let i = id - t.lo in
  if i < 0 || i >= Array.length t.slots then invalid_arg "Idtab.set: id out of range";
  t.slots.(i) <- v
