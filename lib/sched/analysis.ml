open Btr_util

type periodic = { wcet : Time.t; period : Time.t; deadline : Time.t }

let task ~wcet ~period ?deadline () =
  let deadline = Option.value ~default:period deadline in
  if wcet <= 0 then invalid_arg "Analysis.task: wcet <= 0";
  if period <= 0 then invalid_arg "Analysis.task: period <= 0";
  if deadline <= 0 then invalid_arg "Analysis.task: deadline <= 0";
  if deadline > period then invalid_arg "Analysis.task: deadline > period";
  { wcet; period; deadline }

let utilization ts =
  List.fold_left
    (fun acc t -> acc +. (Time.to_sec_f t.wcet /. Time.to_sec_f t.period))
    0.0 ts

let response_times ts =
  (* Deadline-monotonic priority order; remember original positions. *)
  let indexed = List.mapi (fun i t -> (i, t)) ts in
  let by_prio =
    List.sort (fun (_, a) (_, b) -> Time.compare a.deadline b.deadline) indexed
  in
  let results = Array.make (List.length ts) None in
  List.iteri
    (fun rank (orig_idx, t) ->
      let higher = List.filteri (fun r _ -> r < rank) by_prio in
      (* R = C + sum_{hp} ceil(R/T_j) C_j, iterated to fixpoint. *)
      let rec iterate r =
        let interference =
          List.fold_left
            (fun acc (_, h) ->
              let jobs = (r + h.period - 1) / h.period in
              Time.add acc (Time.mul h.wcet jobs))
            Time.zero higher
        in
        let r' = Time.add t.wcet interference in
        if Time.compare r' t.deadline > 0 then None
        else if Time.equal r' r then Some r'
        else iterate r'
      in
      results.(orig_idx) <- iterate t.wcet)
    by_prio;
  Array.to_list results

let fp_schedulable ts =
  List.for_all2
    (fun t r -> match r with Some x -> Time.compare x t.deadline <= 0 | None -> false)
    ts (response_times ts)
