(* Planner scaling: from-scratch plan+verify vs incremental single-edit
   re-verification (Btr_check.Incr) over a fleet-size sweep. The
   committed BENCH_planner.json is regenerated by
   [dune exec bench/main.exe -- --planner --json]; CI's
   planner-bench-smoke job replays the sweep capped at 1000 nodes and
   gates on the incremental path staying well under the full one.

   The f column is part of the result, not an accident: with f = 1 the
   planner builds one mode per fault pattern (n + 1 modes of ~2n tasks
   each), which is the regime the 10- and 100-node rows measure. The
   fleet-scale rows run f = 0 — one mode — because that is the only
   regime where a from-scratch baseline at 10^3..10^4 nodes completes
   in minutes rather than hours; the incremental path is exactly the
   same code either way. *)

open Btr_util
module Graph = Btr_workload.Graph
module Generators = Btr_workload.Generators
module Topology = Btr_net.Topology
module Planner = Btr_planner.Planner
module Check = Btr_check.Check
module Incr = Btr_check.Incr

(* btr-lint: allow wall-clock — benchmark timing is inherently
   wall-clock; simulated results stay deterministic. *)
let now () = Unix.gettimeofday ()

let sizes = [ (10, 1); (100, 1); (1000, 0); (10000, 0) ]

type row = {
  nodes : int;
  f : int;
  tasks : int;
  flows : int;
  full_us : int;  (** Planner.build + Check.verify from scratch *)
  init_us : int;  (** Incr.init (plan + verify + warm the memos) *)
  set_r_us : int;  (** apply Set_recovery_bound (avg of 2) *)
  retune_flow_us : int;  (** apply Retune_flow msg_size (avg of 2) *)
  flow_add_remove_us : int;  (** apply Add_flow + Remove_flow (sum) *)
  memo_hit_bp : int;  (** memo hits / lookups over the applies, bp *)
}

let us_of dt = int_of_float ((dt *. 1_000_000.0) +. 0.5)

let apply_exn st e =
  match Incr.apply st e with
  | Ok (st', _) -> st'
  | Error err ->
    Format.eprintf "planner bench: apply failed: %a@." Incr.pp_apply_error err;
    exit 1

let measure (nodes, f) =
  let w = Generators.fleet ~n_nodes:nodes in
  let topo =
    Topology.dual_bus ~n:nodes ~bandwidth_bps:(10_000_000 * nodes)
      ~latency:(Time.us 50)
  in
  let cfg = Planner.default_config ~f ~recovery_bound:(Time.ms 100) in
  let t0 = now () in
  (match Planner.build cfg w topo with
  | Error e ->
    Format.eprintf "planner bench: build failed: %a@." Planner.pp_error e;
    exit 1
  | Ok s -> ignore (Check.verify s));
  let full_us = us_of (now () -. t0) in
  let t0 = now () in
  let st =
    match Incr.init cfg w topo with
    | Ok st -> st
    | Error e ->
      Format.eprintf "planner bench: init failed: %a@." Planner.pp_error e;
      exit 1
  in
  let init_us = us_of (now () -. t0) in
  Incr.reset_memo_stats st;
  (* A flow retune and back: replans every mode (the workload
     fingerprint is coarse) but the evidence-bound memo stays warm. *)
  let fl = List.hd (Graph.flows w) in
  let retune size =
    Incr.Retune_flow { flow = fl.Graph.flow_id; msg_size = Some size; deadline = None }
  in
  let t0 = now () in
  let st = apply_exn st (retune (fl.Graph.msg_size * 2)) in
  let st = apply_exn st (retune fl.Graph.msg_size) in
  let retune_flow_us = us_of ((now () -. t0) /. 2.0) in
  (* Grow and shrink the flow set. *)
  let fresh =
    1 + List.fold_left (fun m (f : Graph.flow) -> Stdlib.max m f.flow_id) 0
          (Graph.flows w)
  in
  let t0 = now () in
  let st = apply_exn st (Incr.Add_flow { fl with Graph.flow_id = fresh }) in
  let st = apply_exn st (Incr.Remove_flow fresh) in
  let flow_add_remove_us = us_of (now () -. t0) in
  (* The headline single edit: retune R. Planning never reads R, so the
     strategy is reused in O(1) and every analysis memo hits. *)
  let t0 = now () in
  let st = apply_exn st (Incr.Set_recovery_bound (Time.ms 90)) in
  let st = apply_exn st (Incr.Set_recovery_bound (Time.ms 100)) in
  let set_r_us = us_of ((now () -. t0) /. 2.0) in
  let s = Incr.memo_stats st in
  let hits =
    s.Incr.reserve_hits + s.Incr.sched_hits + s.Incr.evb_hits + s.Incr.cuts_hits
  in
  let misses =
    s.Incr.reserve_misses + s.Incr.sched_misses + s.Incr.evb_misses
    + s.Incr.cuts_misses
  in
  {
    nodes;
    f;
    tasks = List.length (Graph.tasks w);
    flows = List.length (Graph.flows w);
    full_us;
    init_us;
    set_r_us;
    retune_flow_us;
    flow_add_remove_us;
    memo_hit_bp = (if hits + misses = 0 then 0 else 10_000 * hits / (hits + misses));
  }

let speedup_x10 r =
  if r.set_r_us = 0 then 10 * r.full_us else 10 * r.full_us / r.set_r_us

let run ?json_file ?max_nodes () =
  let sizes =
    match max_nodes with
    | None -> sizes
    | Some cap -> List.filter (fun (n, _) -> n <= cap) sizes
  in
  let rows = List.map measure sizes in
  let table =
    Table.create ~title:"PB  Incremental re-verification vs from-scratch"
      ~header:
        [
          "nodes"; "f"; "tasks"; "full ms"; "init ms"; "set-R ms";
          "retune-flow ms"; "speedup"; "memo hits";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.nodes;
          string_of_int r.f;
          string_of_int r.tasks;
          Printf.sprintf "%.1f" (float_of_int r.full_us /. 1000.0);
          Printf.sprintf "%.1f" (float_of_int r.init_us /. 1000.0);
          Printf.sprintf "%.2f" (float_of_int r.set_r_us /. 1000.0);
          Printf.sprintf "%.1f" (float_of_int r.retune_flow_us /. 1000.0);
          Printf.sprintf "%.0fx" (float_of_int (speedup_x10 r) /. 10.0);
          Printf.sprintf "%.1f%%" (float_of_int r.memo_hit_bp /. 100.0);
        ])
    rows;
  Table.print table;
  match json_file with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    Printf.fprintf oc "{\"bench\":\"planner\",\"sizes\":%d}\n" (List.length rows);
    List.iter
      (fun r ->
        Printf.fprintf oc
          "{\"nodes\":%d,\"f\":%d,\"tasks\":%d,\"flows\":%d,\"full_us\":%d,\"init_us\":%d,\"incr_set_r_us\":%d,\"incr_retune_flow_us\":%d,\"incr_flow_add_remove_us\":%d,\"speedup_set_r_x10\":%d,\"memo_hit_bp\":%d}\n"
          r.nodes r.f r.tasks r.flows r.full_us r.init_us r.set_r_us
          r.retune_flow_us r.flow_add_remove_us (speedup_x10 r) r.memo_hit_bp)
      rows;
    close_out oc;
    Printf.printf "wrote %s\n" file
