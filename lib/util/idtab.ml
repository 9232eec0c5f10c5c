type 'a t = { lo : int; slots : 'a array; absent : 'a }

let span ~lo ~hi absent =
  if hi < lo then { lo = 0; slots = [||]; absent }
  else { lo; slots = Array.make (hi - lo + 1) absent; absent }

let like t absent = { lo = t.lo; slots = Array.make (Array.length t.slots) absent; absent }

let get t id =
  let i = id - t.lo in
  if i >= 0 && i < Array.length t.slots then t.slots.(i) else t.absent

let set t id v =
  let i = id - t.lo in
  if i < 0 || i >= Array.length t.slots then invalid_arg "Idtab.set: id out of range";
  t.slots.(i) <- v

let fold_right f t init = Array.fold_right f t.slots init
