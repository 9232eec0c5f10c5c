open Btr_util
module Engine = Btr_sim.Engine
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Topology = Btr_net.Topology
module Net = Btr_net.Net
module Fault = Btr_fault.Fault
module Behavior = Btr.Behavior
module Golden = Btr.Golden
module Metrics = Btr.Metrics
module Obs = Btr_obs.Obs

type style =
  | Unreplicated
  | Pbft of { f : int }
  | Zz of { f : int; timeout : Time.t }
  | Selfstab of { audit_interval : Time.t; expose_prob : float }

let style_name = function
  | Unreplicated -> "no-ft"
  | Pbft _ -> "pbft-lite"
  | Zz _ -> "zz-lite"
  | Selfstab _ -> "self-stab"

type msg =
  | Copy of { flow : int; period : int; value : float array; digest : int64 }
      (* a producer replica's output copy, sent to a consumer/sink node *)
  | Agree of { task : Task.id; period : int; digest : int64 }
      (* PBFT-style digest exchange within a producer group *)
  | Activate of { task : Task.id; period : int }
      (* ZZ: a consumer asks the standbys to recompute *)

type t = {
  eng : Engine.t;
  obs : Obs.t;
  exec_count : Obs.Counter.t;
  net : msg Net.t;
  topo : Topology.t;
  workload : Graph.t;
  style : style;
  behaviors : Behavior.table;
  golden : Golden.t;
  metrics : Metrics.t;
  period_len : Time.t;
  horizon : Time.t;
  groups : (Task.id, int list) Hashtbl.t;
  standbys : (Task.id, int list) Hashtbl.t;
  byz : (int, Fault.behavior) Hashtbl.t;
  mutable exposed : int list;  (* self-stab: nodes an audit caught *)
  (* received copies per (consumer node, flow, period):
     (digest, value, arrival, sender) *)
  copies : (int * int * int, (int64 * float array * Time.t * int) list ref) Hashtbl.t;
  accepted : (int * int * int, float array * Time.t) Hashtbl.t;
  votes : (int * Task.id * int, (int64 * int) list ref) Hashtbl.t;
      (* agreement votes at a group member: (digest, voter) *)
  outputs : (int * Task.id * int, float array) Hashtbl.t;
  released : (int * Task.id * int, unit) Hashtbl.t;
  executed : (int * Task.id * int, unit) Hashtbl.t;
  activated : (Task.id * int, unit) Hashtbl.t;
  mutable busy_total : Time.t;
  busy : (int, Time.t) Hashtbl.t;
  mutable executions : int;
}

let metrics t = t.metrics
let bytes_sent t = (Net.stats t.net).Net.bytes_sent

let cpu_utilization t =
  Time.to_sec_f t.busy_total
  /. (Time.to_sec_f t.horizon *. float_of_int (Topology.node_count t.topo))

let replication_factor t =
  let computes = List.length (Graph.compute_tasks t.workload) in
  let periods = t.horizon / t.period_len in
  if computes = 0 || periods = 0 then 0.0
  else float_of_int t.executions /. float_of_int (computes * periods)

let group_size = function
  | Unreplicated | Selfstab _ -> 1
  | Pbft { f } -> (3 * f) + 1
  | Zz { f; _ } -> f + 1

let quorum_matching = function
  | Unreplicated | Selfstab _ -> 1
  | Pbft { f } | Zz { f; _ } -> f + 1

let agreement_quorum = function Pbft { f } -> (2 * f) + 1 | _ -> 1

(* Round-robin groups over the surviving nodes, offset per task. *)
let assign_groups workload topo style ~exclude ~into_groups ~into_standbys =
  let nodes =
    Array.of_list
      (List.filter (fun n -> not (List.mem n exclude)) (Topology.nodes topo))
  in
  let n = Array.length nodes in
  List.iteri
    (fun idx (x : Task.t) ->
      match x.pinned with
      | Some p ->
        Hashtbl.replace into_groups x.id [ p ];
        Hashtbl.replace into_standbys x.id []
      | None ->
        let size = Stdlib.min n (group_size style) in
        let pick count start = List.init count (fun i -> nodes.((start + i) mod n)) in
        Hashtbl.replace into_groups x.id (pick size idx);
        let spare =
          match style with
          | Zz { f; _ } -> pick (Stdlib.min f (n - size)) (idx + size)
          | Unreplicated | Pbft _ | Selfstab _ -> []
        in
        Hashtbl.replace into_standbys x.id spare)
    (Graph.tasks workload)

let group t tid = Option.value ~default:[] (Hashtbl.find_opt t.groups tid)
let standby t tid = Option.value ~default:[] (Hashtbl.find_opt t.standbys tid)
let behavior_of t node = Hashtbl.find_opt t.byz node
let node_running t node = behavior_of t node <> Some Fault.Crash

(* Byzantine output filter, per destination. Equivocation alternates
   clean/garbage by destination parity. *)
let byz_value t node ~dst value =
  match behavior_of t node with
  | None -> Some (value, Time.zero)
  | Some Fault.Crash | Some Fault.Omit_outputs -> None
  | Some (Fault.Omit_to targets) ->
    if List.mem dst targets then None else Some (value, Time.zero)
  | Some (Fault.Delay_outputs d) -> Some (value, d)
  | Some Fault.Corrupt_outputs ->
    Some (Array.map (fun x -> x +. 1009.0) value, Time.zero)
  | Some Fault.Equivocate ->
    if dst mod 2 = 0 then Some (value, Time.zero)
    else Some (Array.map (fun x -> x +. 1009.0) value, Time.zero)
  | Some (Fault.Babble _) -> Some (value, Time.zero)

let send t ~src ~dst ~size m =
  ignore (Net.send t.net ~src ~dst ~cls:Net.Data ~size_bytes:size m)

(* Charge wcet on the node's serial CPU; run [k] when it completes. *)
let charge_cpu t node wcet k =
  let free = Option.value ~default:Time.zero (Hashtbl.find_opt t.busy node) in
  let start = Time.max (Engine.now t.eng) free in
  let finish = Time.add start wcet in
  Hashtbl.replace t.busy node finish;
  t.busy_total <- Time.add t.busy_total wcet;
  Engine.schedule t.eng ~at:finish (fun _ -> k ())

let distinct_vote_count entries d =
  List.length
    (List.sort_uniq Int.compare
       (List.filter_map (fun (dg, voter) -> if Int64.equal dg d then Some voter else None)
          entries))

let copies_for t node flow period =
  match Hashtbl.find_opt t.copies (node, flow, period) with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.replace t.copies (node, flow, period) l;
    l

(* Matching-copy quorum among distinct senders; [needed] is capped by
   the producer group's size (a pinned source has only one copy). *)
let quorum_value ~needed entries =
  let digests = List.sort_uniq Int64.compare (List.map (fun (d, _, _, _) -> d) entries) in
  List.find_map
    (fun d ->
      let matching = List.filter (fun (dg, _, _, _) -> Int64.equal dg d) entries in
      let senders =
        List.sort_uniq Int.compare (List.map (fun (_, _, _, s) -> s) matching)
      in
      if List.length senders >= needed then
        match matching with
        | (_, v, arr, _) :: rest ->
          let latest =
            List.fold_left (fun acc (_, _, a, _) -> Time.max acc a) arr rest
          in
          Some (v, latest)
        | [] -> None
      else None)
    digests

let is_sink t tid = (Graph.task t.workload tid).Task.kind = Task.Sink

let rec try_execute t node tid period =
  let key = (node, tid, period) in
  if
    (not (Hashtbl.mem t.executed key))
    && node_running t node
    && (List.mem node (group t tid) || List.mem node (standby t tid))
  then begin
    let incoming = Graph.producers_of t.workload tid in
    let inputs =
      List.filter_map
        (fun (fl : Graph.flow) ->
          Option.map
            (fun (v, _) -> { Behavior.orig_flow = fl.flow_id; value = v })
            (Hashtbl.find_opt t.accepted (node, fl.flow_id, period)))
        incoming
    in
    if List.length inputs = List.length incoming then begin
      Hashtbl.replace t.executed key ();
      let x = Graph.task t.workload tid in
      charge_cpu t node x.Task.wcet (fun () ->
          if node_running t node then begin
            if x.Task.kind = Task.Compute then begin
              t.executions <- t.executions + 1;
              Obs.Counter.incr t.exec_count
            end;
            if Obs.enabled t.obs then
              Obs.emit t.obs ~at:(Engine.now t.eng) ~node Obs.Baseline
                (Obs.Lane_exec
                   { task = tid; period; role = style_name t.style });
            match Behavior.find t.behaviors tid ~period ~inputs with
            | None -> ()
            | Some value ->
              Hashtbl.replace t.outputs key value;
              (match t.style with
              | Pbft _ when x.Task.pinned = None ->
                (* Agreement round before release. *)
                let g = group t tid in
                let digest = Behavior.value_digest value in
                List.iter
                  (fun member ->
                    match byz_value t node ~dst:member [||] with
                    | None -> ()
                    | Some (_, extra) ->
                      let fire _ =
                        if member = node then on_agree t member tid period digest node
                        else send t ~src:node ~dst:member ~size:48 (Agree { task = tid; period; digest })
                      in
                      if Time.equal extra Time.zero then fire ()
                      else Engine.schedule_in t.eng ~delay:extra fire)
                  g
              | Unreplicated | Zz _ | Selfstab _ | Pbft _ ->
                release_output t node tid period value)
          end)
    end
  end

and on_agree t node task period digest voter =
  if node_running t node then begin
    let key = (node, task, period) in
    let l =
      match Hashtbl.find_opt t.votes key with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace t.votes key l;
        l
    in
    l := (digest, voter) :: !l;
    match Hashtbl.find_opt t.outputs key with
    | None -> ()
    | Some value ->
      let own = Behavior.value_digest value in
      if
        (not (Hashtbl.mem t.released key))
        && distinct_vote_count ((own, node) :: !l) own >= agreement_quorum t.style
      then begin
        Hashtbl.replace t.released key ();
        release_output t node task period value
      end
  end

and release_output t node tid period value =
  List.iter
    (fun (fl : Graph.flow) ->
      let receivers =
        List.sort_uniq Int.compare (group t fl.consumer @ standby t fl.consumer)
      in
      List.iter
        (fun dst ->
          match byz_value t node ~dst value with
          | None -> ()
          | Some (v, extra) ->
            let m =
              Copy { flow = fl.flow_id; period; value = v; digest = Behavior.value_digest v }
            in
            if Time.equal extra Time.zero then send t ~src:node ~dst ~size:fl.msg_size m
            else
              Engine.schedule_in t.eng ~delay:extra (fun _ ->
                send t ~src:node ~dst ~size:fl.msg_size m))
        receivers)
    (Graph.consumers_of t.workload tid)

and accept_check t node flow period =
  let key = (node, flow, period) in
  if not (Hashtbl.mem t.accepted key) then begin
    let entries = !(copies_for t node flow period) in
    let fl = Graph.flow t.workload flow in
    let needed =
      Stdlib.min (quorum_matching t.style)
        (Stdlib.max 1 (List.length (group t fl.producer)))
    in
    match quorum_value ~needed entries with
    | Some (value, arrived) ->
      Hashtbl.replace t.accepted key (value, arrived);
      if is_sink t fl.consumer then begin
        if List.mem node (group t fl.consumer) then
          Metrics.record_delivery t.metrics ~orig_flow:flow ~period ~value ~arrived
            ~lane:0
      end
      else try_execute t node fl.consumer period
    | None -> (
      (* ZZ: all active copies in but disagreeing -> wake the standbys. *)
      match t.style with
      | Zz _ ->
        let active = List.length (group t fl.producer) in
        let senders =
          List.sort_uniq Int.compare (List.map (fun (_, _, _, s) -> s) entries)
        in
        if List.length senders >= active then activate_standbys t fl.producer period
      | Unreplicated | Pbft _ | Selfstab _ -> ())
  end

and activate_standbys t task period =
  if not (Hashtbl.mem t.activated (task, period)) then begin
    Hashtbl.replace t.activated (task, period) ();
    if Obs.enabled t.obs then
      Obs.emit t.obs ~at:(Engine.now t.eng) Obs.Baseline
        (Obs.Standby_activated { task; period });
    List.iter
      (fun sb -> send t ~src:sb ~dst:sb ~size:32 (Activate { task; period }))
      (standby t task)
  end

let on_receive t node (r : msg Net.recv) =
  if node_running t node then
    match r.Net.payload with
    | Copy { flow; period; value; digest } ->
      let l = copies_for t node flow period in
      l := (digest, value, r.Net.delivered_at, r.Net.src) :: !l;
      accept_check t node flow period;
      (* ZZ: arm the disagreement timeout on first copy. *)
      (match t.style with
      | Zz { timeout; _ } when List.length !l = 1 ->
        Engine.schedule_in t.eng ~delay:timeout (fun _ ->
          if not (Hashtbl.mem t.accepted (node, flow, period)) then
            activate_standbys t (Graph.flow t.workload flow).Graph.producer
              period)
      | _ -> ())
    | Agree { task; period; digest } -> on_agree t node task period digest r.Net.src
    | Activate { task; period } -> try_execute t node task period

let run_sources t period =
  List.iter
    (fun (x : Task.t) ->
      match x.pinned with
      | None -> ()
      | Some node ->
        if node_running t node then
          charge_cpu t node x.wcet (fun () ->
              if node_running t node then
                match Behavior.find t.behaviors x.id ~period ~inputs:[] with
                | None -> ()
                | Some value ->
                  (match byz_value t node ~dst:(-2) value with
                  | Some (v, _) -> Golden.note_source t.golden ~task:x.id ~period v
                  | None -> ());
                  release_output t node x.id period value))
    (Graph.sources t.workload)

let audit t =
  match t.style with
  | Selfstab { expose_prob; _ } ->
    let rng = Engine.rng t.eng in
    (* Sorted traversal: each candidate consumes an RNG draw, so the
       visit order is part of the deterministic-replay contract. *)
    let newly =
      Table.sorted_fold ~cmp:Int.compare
        (fun node _ acc ->
          if (not (List.mem node t.exposed)) && Rng.chance rng expose_prob
          then node :: acc
          else acc)
        t.byz []
    in
    if newly <> [] then begin
      if Obs.enabled t.obs then
        List.iter
          (fun node ->
            Obs.emit t.obs ~at:(Engine.now t.eng) ~node Obs.Baseline
              (Obs.Audit_exposed { node }))
          newly;
      t.exposed <- newly @ t.exposed;
      assign_groups t.workload t.topo t.style ~exclude:t.exposed
        ~into_groups:t.groups ~into_standbys:t.standbys;
      Net.set_route_avoid t.net t.exposed
    end
  | Unreplicated | Pbft _ | Zz _ -> ()

let run ?(seed = 1) ?(behaviors = []) ?obs ~workload ~topology ~style ~script
    ~horizon () =
  let eng = Engine.create ~seed ?obs () in
  let obs = Engine.obs eng in
  let net = Net.create eng topology () in
  let table = Behavior.table workload ~overrides:behaviors in
  let groups = Hashtbl.create 32 and standbys = Hashtbl.create 32 in
  assign_groups workload topology style ~exclude:[] ~into_groups:groups
    ~into_standbys:standbys;
  let t =
    {
      eng;
      obs;
      exec_count = Obs.Registry.counter (Obs.registry obs) Obs.Baseline "executions";
      net;
      topo = topology;
      workload;
      style;
      behaviors = table;
      golden = Golden.create workload table;
      metrics = Metrics.create ~obs workload;
      period_len = Graph.period workload;
      horizon;
      groups;
      standbys;
      byz = Hashtbl.create 4;
      exposed = [];
      copies = Hashtbl.create 512;
      accepted = Hashtbl.create 512;
      votes = Hashtbl.create 128;
      outputs = Hashtbl.create 256;
      released = Hashtbl.create 256;
      executed = Hashtbl.create 512;
      activated = Hashtbl.create 32;
      busy_total = Time.zero;
      busy = Hashtbl.create 16;
      executions = 0;
    }
  in
  List.iter
    (fun node -> Net.set_handler net node (on_receive t node))
    (Topology.nodes topology);
  List.iter
    (fun (ev : Fault.event) ->
      Engine.schedule eng ~at:ev.Fault.at (fun _ ->
        Hashtbl.replace t.byz ev.Fault.node ev.Fault.behavior;
        Metrics.record_injection t.metrics ~at:(Engine.now eng)
          ~node:ev.Fault.node
          ~what:(Fault.behavior_name ev.Fault.behavior)))
    script;
  let total = horizon / t.period_len in
  for p = 0 to total do
    Engine.schedule eng ~at:(Time.mul t.period_len p) (fun _ ->
      if p > 0 then
        Metrics.finalize_period t.metrics ~golden:t.golden ~period:(p - 1)
          ~shed:[];
      if p < total then run_sources t p)
  done;
  (match style with
  | Selfstab { audit_interval; _ } ->
    ignore (Engine.every eng ~period:audit_interval (fun _ -> audit t))
  | Unreplicated | Pbft _ | Zz _ -> ());
  Engine.run ~until:horizon eng;
  t
