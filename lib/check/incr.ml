open Btr_util
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Topology = Btr_net.Topology
module Planner = Btr_planner.Planner

(* ------------------------------------------------------------------ *)
(* Edits                                                               *)

type edit =
  | Add_node of int
  | Remove_node of int
  | Add_link of Topology.link
  | Retune_link of {
      link : int;
      bandwidth_bps : int option;
      latency : Time.t option;
    }
  | Add_flow of Graph.flow
  | Remove_flow of int
  | Retune_flow of {
      flow : int;
      msg_size : int option;
      deadline : Time.t option option;
    }
  | Set_f of int
  | Set_recovery_bound of Time.t

type apply_error = Invalid_edit of string | Plan_failed of Planner.error

let pp_apply_error ppf = function
  | Invalid_edit msg -> Format.fprintf ppf "invalid edit: %s" msg
  | Plan_failed e -> Format.fprintf ppf "replanning failed: %a" Planner.pp_error e

(* ------------------------------------------------------------------ *)
(* Memo tables                                                         *)

type counter = { mutable hits : int; mutable misses : int }

let fresh_counter () = { hits = 0; misses = 0 }

type memo_stats = {
  static_hits : int;
  static_misses : int;
  reserve_hits : int;
  reserve_misses : int;
  rta_hits : int;
  rta_misses : int;
  sched_hits : int;
  sched_misses : int;
  routes_hits : int;
  routes_misses : int;
  evb_hits : int;
  evb_misses : int;
  cuts_hits : int;
  cuts_misses : int;
}

type memo = {
  reserve_tbl : (string, Check.diagnostic list) Hashtbl.t;
  sched_tbl : (string, Check.diagnostic list) Hashtbl.t;
  cuts_tbl : (string, (int * int list) option list) Hashtbl.t;
  (* Evidence bounds, keyed on the sorted fault pattern alone: a bound
     reads only the topology and the shares, no edit changes the
     shares, and a topology edit gives the edited state a fresh table.
     The planner and the verifier fill and read the same table. *)
  bounds : (int list, Time.t) Hashtbl.t;
  c_reserve : counter;
  c_sched : counter;
  c_evb : counter;
  c_cuts : counter;
}

let fresh_memo () =
  {
    reserve_tbl = Hashtbl.create 64;
    sched_tbl = Hashtbl.create 64;
    cuts_tbl = Hashtbl.create 256;
    bounds = Hashtbl.create 64;
    c_reserve = fresh_counter ();
    c_sched = fresh_counter ();
    c_evb = fresh_counter ();
    c_cuts = fresh_counter ();
  }

let memo_find tbl ctr k compute =
  match Hashtbl.find_opt tbl k with
  | Some v ->
    ctr.hits <- ctr.hits + 1;
    v
  | None ->
    ctr.misses <- ctr.misses + 1;
    let v = compute () in
    Hashtbl.add tbl k v;
    v

(* ------------------------------------------------------------------ *)
(* Dependency keys. The mode-keyed units (data reserves, table
   validation, omission cuts) read nothing outside the strategy's plan
   for one fault pattern, and planning is deterministic in (workload,
   topology, R-stripped config): they key on {!strategy_digest} plus the
   fault pattern, so an R-only edit hits every entry. Keys are content
   digests, never edit counters, so undoing an edit hits the entries the
   original inputs filled. The link checks and survivor-route sweeps
   are not memoized: each costs less to rerun than its key would cost
   to build. *)

(* FNV-1a over a total serialization of everything planning reads,
   folded field by field as ints: every list is prefixed with its
   length, every option with a tag, every string with its length. *)
let fold_list f h xs = List.fold_left f (Fnv.fold_int h (List.length xs)) xs

let fold_opt h = function
  | None -> Fnv.fold_int h 0
  | Some n -> Fnv.fold_int (Fnv.fold_int h 1) n

let workload_fingerprint (g : Graph.t) =
  let task h (x : Task.t) =
    let h = Fnv.fold_string (Fnv.fold_int h x.id) x.name in
    let kind = match x.kind with Task.Source -> 0 | Task.Compute -> 1 | Task.Sink -> 2 in
    let h = Fnv.fold_int (Fnv.fold_int (Fnv.fold_int h kind) x.wcet) (Task.criticality_rank x.criticality) in
    fold_opt (Fnv.fold_int h x.state_size) x.pinned
  in
  let flow h (fl : Graph.flow) =
    let h = Fnv.fold_int (Fnv.fold_int h fl.flow_id) fl.producer in
    fold_opt (Fnv.fold_int (Fnv.fold_int h fl.consumer) fl.msg_size) fl.deadline
  in
  let h = fold_list task (Fnv.fold_int Fnv.offset (Graph.period g)) (Graph.tasks g) in
  fold_list flow h (Graph.flows g)

let topology_fingerprint topo =
  let link h (l : Topology.link) =
    let h = fold_list Fnv.fold_int (Fnv.fold_int h l.link_id) l.members in
    Fnv.fold_int (Fnv.fold_int h l.bandwidth_bps) l.latency
  in
  fold_list link (fold_list Fnv.fold_int Fnv.offset (Topology.nodes topo)) (Topology.links topo)

(* Everything a strategy's plans depend on: strategies with equal
   digests have equal plans for every fault pattern. The state keeps
   each input's fingerprint, so an edit refolds only the input it
   changed. *)
let strategy_digest ~workload_fp ~topology_fp config =
  Fnv.to_hex
    (Fnv.hash64_lines
       [ Fnv.to_hex workload_fp; Fnv.to_hex topology_fp; Planner.config_build_key config ])

(* Memo-wrapping the default units: on a hit the stored result is
   returned; on a miss the {e default} implementation runs, so the
   incremental path can never diverge from {!Check.verify_view} — at
   worst it recomputes. *)
let units_of (m : memo) ~digest : Check.units =
  let d = Check.default_units in
  let mode_keyed :
      'a.
      string ->
      (string, 'a) Hashtbl.t ->
      counter ->
      (unit -> 'a) ->
      Planner.plan ->
      suffix:string ->
      'a =
   fun prefix tbl ctr compute p ~suffix ->
    let faulty = String.concat "," (List.map string_of_int p.Planner.faulty) in
    memo_find tbl ctr (prefix ^ digest ^ "|" ^ faulty ^ suffix) compute
  in
  {
    Check.u_data_reserves =
      (fun v p ~routes ->
        mode_keyed "reserve|" m.reserve_tbl m.c_reserve
          (fun () -> d.Check.u_data_reserves v p ~routes)
          p ~suffix:"");
    u_schedule_valid =
      (fun v p ~routes ->
        mode_keyed "sched|" m.sched_tbl m.c_sched
          (fun () -> d.Check.u_schedule_valid v p ~routes)
          p ~suffix:"");
    u_evb =
      (fun ev faulty -> memo_find m.bounds m.c_evb faulty (fun () -> d.Check.u_evb ev faulty));
    u_omission_cuts =
      (fun v p ~sender ->
        mode_keyed "cuts|" m.cuts_tbl m.c_cuts
          (fun () -> d.Check.u_omission_cuts v p ~sender)
          p
          ~suffix:(Printf.sprintf "|%d" sender));
  }

(* Planning through the shared evidence-bound table. *)
let build (m : memo) config workload topology =
  Planner.build
    ~evidence_bound:(fun ev faulty ->
      memo_find m.bounds m.c_evb faulty (fun () -> Planner.evidence_bound ev ~faulty))
    config workload topology

(* ------------------------------------------------------------------ *)
(* State                                                               *)

type state = {
  config : Planner.config;
  workload : Graph.t;
  topology : Topology.t;
  strategy : Planner.t;
  workload_fp : int64;  (* [workload_fingerprint workload] *)
  topology_fp : int64;  (* [topology_fingerprint topology] *)
  digest : string;  (* [strategy_digest] of the two and [config] *)
  view : Check.view;
  st_report : Check.report;
  strikes : int;
  memo : memo;
}

type report_delta = {
  appeared : Check.diagnostic list;
  disappeared : Check.diagnostic list;
}

let report st = st.st_report
let strategy st = st.strategy
let view st = st.view

(* The static and route families are not memoized, and the RTA family
   no longer exists: their fields read 0 (see the interface). *)
let memo_stats st =
  let m = st.memo in
  {
    static_hits = 0;
    static_misses = 0;
    reserve_hits = m.c_reserve.hits;
    reserve_misses = m.c_reserve.misses;
    rta_hits = 0;
    rta_misses = 0;
    sched_hits = m.c_sched.hits;
    sched_misses = m.c_sched.misses;
    routes_hits = 0;
    routes_misses = 0;
    evb_hits = m.c_evb.hits;
    evb_misses = m.c_evb.misses;
    cuts_hits = m.c_cuts.hits;
    cuts_misses = m.c_cuts.misses;
  }

let reset_memo_stats st =
  List.iter
    (fun c ->
      c.hits <- 0;
      c.misses <- 0)
    [ st.memo.c_reserve; st.memo.c_sched; st.memo.c_evb; st.memo.c_cuts ]

let init ?(strikes = 1) config workload topology =
  let memo = fresh_memo () in
  match build memo config workload topology with
  | Error e -> Error e
  | Ok strategy ->
    let view = Check.view_of_strategy strategy in
    let workload_fp = workload_fingerprint workload in
    let topology_fp = topology_fingerprint topology in
    let digest = strategy_digest ~workload_fp ~topology_fp config in
    let st_report = Check.verify_units ~strikes (units_of memo ~digest) view in
    Ok
      {
        config;
        workload;
        topology;
        strategy;
        workload_fp;
        topology_fp;
        digest;
        view;
        st_report;
        strikes;
        memo;
      }

(* ------------------------------------------------------------------ *)
(* Applying edits to the inputs                                        *)

let edited_workload st = function
  | Add_flow fl ->
    (* Flow ids stay dense (the planner's indexes span the id range), so
       a new flow takes a free id no larger than one past the largest. *)
    let top =
      List.fold_left (fun m (f : Graph.flow) -> Stdlib.max m f.flow_id) (-1)
        (Graph.flows st.workload)
    in
    if fl.flow_id < 0 || fl.flow_id > top + 1 then
      invalid_arg (Printf.sprintf "flow id %d outside 0..%d" fl.flow_id (top + 1));
    Some
      (Graph.create_relaxed ~period:(Graph.period st.workload)
         ~tasks:(Graph.tasks st.workload)
         ~flows:(Graph.flows st.workload @ [ fl ]))
  | Remove_flow id ->
    if not (List.exists (fun (f : Graph.flow) -> f.flow_id = id) (Graph.flows st.workload))
    then invalid_arg (Printf.sprintf "no flow %d" id)
    else
      Some
        (Graph.create_relaxed ~period:(Graph.period st.workload)
           ~tasks:(Graph.tasks st.workload)
           ~flows:
             (List.filter
                (fun (f : Graph.flow) -> f.flow_id <> id)
                (Graph.flows st.workload)))
  | Retune_flow { flow; msg_size; deadline } ->
    if not (List.exists (fun (f : Graph.flow) -> f.flow_id = flow) (Graph.flows st.workload))
    then invalid_arg (Printf.sprintf "no flow %d" flow)
    else
      Some
        (Graph.create_relaxed ~period:(Graph.period st.workload)
           ~tasks:(Graph.tasks st.workload)
           ~flows:
             (List.map
                (fun (f : Graph.flow) ->
                  if f.flow_id <> flow then f
                  else
                    {
                      f with
                      msg_size = Option.value ~default:f.msg_size msg_size;
                      deadline = Option.value ~default:f.deadline deadline;
                    })
                (Graph.flows st.workload)))
  | _ -> None

let edited_topology st = function
  | Add_node n ->
    Some
      (Topology.create
         ~nodes:(Topology.nodes st.topology @ [ n ])
         ~links:(Topology.links st.topology))
  | Remove_node n ->
    if not (List.mem n (Topology.nodes st.topology)) then
      invalid_arg (Printf.sprintf "no node %d" n)
    else
      let links =
        List.filter_map
          (fun (l : Topology.link) ->
            let members = List.filter (fun m -> m <> n) l.Topology.members in
            if List.length members < 2 then None
            else Some { l with Topology.members })
          (Topology.links st.topology)
      in
      Some
        (Topology.create
           ~nodes:(List.filter (fun m -> m <> n) (Topology.nodes st.topology))
           ~links)
  | Add_link l ->
    Some
      (Topology.create
         ~nodes:(Topology.nodes st.topology)
         ~links:(Topology.links st.topology @ [ l ]))
  | Retune_link { link; bandwidth_bps; latency } ->
    if
      not
        (List.exists
           (fun (l : Topology.link) -> l.Topology.link_id = link)
           (Topology.links st.topology))
    then invalid_arg (Printf.sprintf "no link %d" link)
    else
      Some
        (Topology.create
           ~nodes:(Topology.nodes st.topology)
           ~links:
             (List.map
                (fun (l : Topology.link) ->
                  if l.Topology.link_id <> link then l
                  else
                    {
                      l with
                      Topology.bandwidth_bps =
                        Option.value ~default:l.Topology.bandwidth_bps
                          bandwidth_bps;
                      latency = Option.value ~default:l.Topology.latency latency;
                    })
                (Topology.links st.topology)))
  | _ -> None

let edited_config st = function
  | Set_f f ->
    if f < 0 then invalid_arg "f must be >= 0"
    (* degree tracks f the way [Planner.default_config] sets it: f+1
       replica lanes keep one survivor under any admissible pattern. *)
    else Some { st.config with Planner.f; degree = Stdlib.max 1 (f + 1) }
  | Set_recovery_bound r ->
    if Time.compare r Time.zero <= 0 then invalid_arg "R must be positive"
    else Some { st.config with Planner.recovery_bound = r }
  | _ -> None

(* The edited inputs and the memo the edited state plans and verifies
   with. A topology edit gets a fresh evidence-bound table, which keeps
   the old state's table intact should the edit fail; every other edit
   leaves the bounds' inputs as they were. *)
let edited_inputs st edit =
  match
    (edited_config st edit, edited_workload st edit, edited_topology st edit)
  with
  | Some c, None, None -> (c, st.workload, st.topology, st.memo)
  | None, Some w, None -> (st.config, w, st.topology, st.memo)
  | None, None, Some t ->
    (st.config, st.workload, t, { st.memo with bounds = Hashtbl.create 64 })
  | _ -> assert false (* each constructor edits exactly one input *)

(* ------------------------------------------------------------------ *)
(* Report diffing: multiset difference on the canonical JSON encoding,
   preserving report order on both sides.                              *)

let report_delta_of (old_r : Check.report) (new_r : Check.report) =
  let counts diags =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun d ->
        let k = Check.diagnostic_to_json d in
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      diags;
    tbl
  in
  let leftover counts_other diags =
    let tbl = counts counts_other in
    List.filter
      (fun d ->
        let k = Check.diagnostic_to_json d in
        match Hashtbl.find_opt tbl k with
        | Some n when n > 0 ->
          Hashtbl.replace tbl k (n - 1);
          false
        | _ -> true)
      diags
  in
  {
    appeared = leftover old_r.Check.diagnostics new_r.Check.diagnostics;
    disappeared = leftover new_r.Check.diagnostics old_r.Check.diagnostics;
  }

let pp_report_delta ppf rd =
  Format.fprintf ppf "@[<v>+%d -%d diagnostics" (List.length rd.appeared)
    (List.length rd.disappeared);
  List.iter
    (fun d -> Format.fprintf ppf "@,+ %a" Check.pp_diagnostic d)
    rd.appeared;
  List.iter
    (fun d -> Format.fprintf ppf "@,- %a" Check.pp_diagnostic d)
    rd.disappeared;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Apply                                                               *)

let apply st edit =
  match edited_inputs st edit with
  | exception Invalid_argument msg -> Error (Invalid_edit msg)
  | config, workload, topology, memo -> (
    let planned =
      match edit with
      | Set_recovery_bound r ->
        (* R is the one input planning never reads: reuse the whole
           strategy in O(1) instead of walking every fault pattern. *)
        Ok (Planner.with_recovery_bound st.strategy r)
      | _ -> (
        (* Refused before planning, as a from-scratch check refuses it. *)
        match
          Planner.check_plan_size ~nodes:(Topology.node_count topology)
            ~f:config.Planner.f ~tasks:(Graph.task_count workload)
        with
        | Error msg -> Error (Invalid_edit msg)
        | Ok () ->
          Result.map_error (fun e -> Plan_failed e) (build memo config workload topology))
    in
    match planned with
    | Error e -> Error e
    | Ok strategy ->
      let view = Check.view_of_strategy strategy in
      (* An edit changes one input ([edited_inputs]), so only that
         input is refolded; the digest omits R, so an R edit keeps it. *)
      let workload_fp =
        if workload == st.workload then st.workload_fp else workload_fingerprint workload
      in
      let topology_fp =
        if topology == st.topology then st.topology_fp else topology_fingerprint topology
      in
      let digest =
        match edit with
        | Set_recovery_bound _ -> st.digest
        | _ -> strategy_digest ~workload_fp ~topology_fp config
      in
      let st_report = Check.verify_units ~strikes:st.strikes (units_of memo ~digest) view in
      let rd = report_delta_of st.st_report st_report in
      Ok
        ( {
            st with
            config;
            workload;
            topology;
            strategy;
            workload_fp;
            topology_fp;
            digest;
            view;
            st_report;
            memo;
          },
          rd ))

(* ------------------------------------------------------------------ *)
(* Edit scripts: a line-oriented textual form for [btr check --delta]. *)

let edit_to_string = function
  | Add_node n -> Printf.sprintf "add-node %d" n
  | Remove_node n -> Printf.sprintf "remove-node %d" n
  | Add_link l ->
    Printf.sprintf "add-link id=%d members=%s bw=%d lat-us=%d" l.Topology.link_id
      (String.concat "," (List.map string_of_int l.Topology.members))
      l.Topology.bandwidth_bps
      (l.Topology.latency : Time.t)
  | Retune_link { link; bandwidth_bps; latency } ->
    String.concat " "
      (Printf.sprintf "retune-link %d" link
      :: Option.to_list (Option.map (Printf.sprintf "bw=%d") bandwidth_bps)
      @ Option.to_list
          (Option.map (fun (l : Time.t) -> Printf.sprintf "lat-us=%d" l) latency))
  | Add_flow f ->
    String.concat " "
      (Printf.sprintf "add-flow id=%d producer=%d consumer=%d size=%d"
         f.Graph.flow_id f.Graph.producer f.Graph.consumer f.Graph.msg_size
      :: Option.to_list
           (Option.map
              (fun (d : Time.t) -> Printf.sprintf "deadline-us=%d" d)
              f.Graph.deadline))
  | Remove_flow id -> Printf.sprintf "remove-flow %d" id
  | Retune_flow { flow; msg_size; deadline } ->
    String.concat " "
      (Printf.sprintf "retune-flow %d" flow
      :: Option.to_list (Option.map (Printf.sprintf "size=%d") msg_size)
      @ Option.to_list
          (Option.map
             (function
               | None -> "deadline=none"
               | Some (d : Time.t) -> Printf.sprintf "deadline-us=%d" d)
             deadline))
  | Set_f f -> Printf.sprintf "set-f %d" f
  | Set_recovery_bound r -> Printf.sprintf "set-recovery-bound-us %d" (r : Time.t)

let parse_edit line =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let int_of s =
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "not an integer: %S" s)
  in
  let ( let* ) = Result.bind in
  let kv tok =
    match String.index_opt tok '=' with
    | Some i ->
      Some
        ( String.sub tok 0 i,
          String.sub tok (i + 1) (String.length tok - i - 1) )
    | None -> None
  in
  let lookup pairs k = Option.map snd (List.find_opt (fun (k', _) -> k' = k) pairs) in
  let opt_int pairs k =
    match lookup pairs k with
    | None -> Ok None
    | Some s ->
      let* n = int_of s in
      Ok (Some n)
  in
  let req_int pairs k =
    match lookup pairs k with
    | None -> fail "missing %s=" k
    | Some s -> int_of s
  in
  match
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Error "empty edit"
  | cmd :: args -> (
    let pairs = List.filter_map kv args in
    match (cmd, args) with
    | "add-node", [ n ] ->
      let* n = int_of n in
      Ok (Add_node n)
    | "remove-node", [ n ] ->
      let* n = int_of n in
      Ok (Remove_node n)
    | "add-link", _ ->
      let* id = req_int pairs "id" in
      let* bw = req_int pairs "bw" in
      let* lat = req_int pairs "lat-us" in
      let* members =
        match lookup pairs "members" with
        | None -> fail "missing members="
        | Some s ->
          List.fold_right
            (fun tok acc ->
              let* acc = acc in
              let* n = int_of tok in
              Ok (n :: acc))
            (String.split_on_char ',' s)
            (Ok [])
      in
      Ok
        (Add_link
           {
             Topology.link_id = id;
             members;
             bandwidth_bps = bw;
             latency = Time.us lat;
           })
    | "retune-link", id :: _ ->
      let* link = int_of id in
      let* bw = opt_int pairs "bw" in
      let* lat = opt_int pairs "lat-us" in
      if bw = None && lat = None then fail "retune-link: nothing to change"
      else
        Ok
          (Retune_link
             { link; bandwidth_bps = bw; latency = Option.map Time.us lat })
    | "add-flow", _ ->
      let* id = req_int pairs "id" in
      let* producer = req_int pairs "producer" in
      let* consumer = req_int pairs "consumer" in
      let* size = req_int pairs "size" in
      let* dl = opt_int pairs "deadline-us" in
      Ok
        (Add_flow
           {
             Graph.flow_id = id;
             producer;
             consumer;
             msg_size = size;
             deadline = Option.map Time.us dl;
           })
    | "remove-flow", [ n ] ->
      let* n = int_of n in
      Ok (Remove_flow n)
    | "retune-flow", id :: _ ->
      let* flow = int_of id in
      let* size = opt_int pairs "size" in
      let* dl =
        match lookup pairs "deadline" with
        | Some "none" -> Ok (Some None)
        | Some other -> fail "deadline=%s (expected none or deadline-us=N)" other
        | None ->
          let* d = opt_int pairs "deadline-us" in
          Ok (Option.map (fun d -> Some (Time.us d)) d)
      in
      if size = None && dl = None then fail "retune-flow: nothing to change"
      else Ok (Retune_flow { flow; msg_size = size; deadline = dl })
    | "set-f", [ n ] ->
      let* n = int_of n in
      Ok (Set_f n)
    | "set-recovery-bound-us", [ n ] ->
      let* n = int_of n in
      Ok (Set_recovery_bound (Time.us n))
    | _ -> fail "unrecognized edit: %s" cmd)
