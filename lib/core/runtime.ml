open Btr_util
module Engine = Btr_sim.Engine
module Auth = Btr_crypto.Auth
module Task = Btr_workload.Task
module Graph = Btr_workload.Graph
module Schedule = Btr_sched.Schedule
module Topology = Btr_net.Topology
module Net = Btr_net.Net
module Planner = Btr_planner.Planner
module Augment = Btr_planner.Augment
module Evidence = Btr_evidence.Evidence
module Authlog = Btr_evidence.Authlog
module Detect = Btr_detect.Detect
module Modeswitch = Btr_modeswitch.Modeswitch
module Fault = Btr_fault.Fault
module Obs = Btr_obs.Obs

type config = {
  seed : int;
  residual_loss : float;
      (* per-hop loss probability surviving FEC; the paper assumes ~0 *)
  omission_strikes : int;
      (* missing messages per path before the watchdog declares it *)
}

let default_config =
  {
    seed = 1;
    residual_loss = 0.0;
    omission_strikes = 1;
  }

(* Period boundaries a staged mode waits for migrating state before
   starting the task fresh anyway. *)
let state_wait_boundaries = 3

(* Invalid evidence records from one signer before a node accuses it of
   forgery. *)
let forged_evidence_threshold = 3

type msg =
  | Data of { flow : int; period : int; value : float array; digest : int64 }
  | Nack of { flow : int; period : int }
      (* "I ran but had no input to compute from": satisfies the
         consumer's watchdog so that suspicion stays at the first hop
         where a message actually went missing, instead of cascading
         down the dataflow and framing starved-but-correct nodes. *)
  | Ack of { orig_task : Task.id; lane : int; period : int; digest : int64 }
  | Ev of Evidence.record
  | State of { task : Task.id }

type entry = { value : float array; digest : int64; arrived : Time.t; from : int }

(* The inbox and the ack table key on one packed int, so a lookup
   hashes a machine word and allocates no tuple: flow and period, and
   task times the lane count plus the lane, and period. *)
let inbox_key ~flow ~period = Inttbl.pack flow period

(* A flow the node consumes from another node: the watchdog expects it
   every period by [start], the consumer's window start. *)
type expectation = { flow : int; from_node : int; start : Time.t }

type node = {
  id : int;
  secret : Auth.secret;
  mutable plan : Planner.plan;
  mutable pending : Planner.plan option;
  mutable pending_waited : int;
  mutable awaiting_state : Task.id list;
  state_received : (Task.id, unit) Hashtbl.t;
  inbox : entry Inttbl.t;  (* by [inbox_key] *)
  acks : int64 list ref Inttbl.t;  (* by [ack_key] *)
  mutable expectations : expectation array;  (* of [plan], in flow order *)
  mutable slot_runs : (Time.t * (Engine.t -> unit)) array;
      (* of [plan]: each slot's finish offset and the event that runs it *)
  watchdog : Detect.Watchdog.t;
  attribution : Detect.Attribution.t;
  fault_set : Modeswitch.Fault_set.t;
  dist : Evidence.Distributor.t;
  invalid_by_src : (int, int) Hashtbl.t;
  accused_forgers : (int, unit) Hashtbl.t;
  authlog : Authlog.t;
  mutable checkpoints : Authlog.checkpoint list;
  mutable byz : Fault.behavior option;
  mutable staged_at : Time.t;
      (* when the pending plan was staged; measures §4.4 switch latency *)
  mutable running : bool;
  mutable plan_since : int;
      (* first period index executed under the current plan; guards
         cross-period checks against flow-id collisions across plans *)
  mutable grace_until : Time.t;
      (* suppress path declarations right after a mode change, while
         peers may still be transitioning (the tolerated §4.4 confusion) *)
}

type t = {
  config : config;
  eng : Engine.t;
  obs : Obs.t;
  auth : Auth.t;
  net : msg Net.t;
  strategy : Planner.t;
  topo : Topology.t;
  period_len : Time.t;
  behaviors : Behavior.table;
  golden : Golden.t;
  metrics : Metrics.t;
  nodes : node Inttbl.t;
  by_id : node array;
      (* the same nodes in ascending id order, the order of every
         traversal (trace-visible) *)
  script : Fault.script;
  actuators : (period:int -> value:float array -> at:Time.t -> unit) Inttbl.t;
  mutable rev_mode_changes : (Time.t * int * int list) list;
  mutable total_periods : int;
  mutable started : bool;
}

let metrics t = t.metrics
let engine t = t.eng
let net_stats t = Net.stats t.net
let strategy t = t.strategy

let node_of t id =
  match Inttbl.find t.nodes id with
  | n -> n
  | exception Not_found -> invalid_arg (Printf.sprintf "Runtime: unknown node %d" id)

let node_fault_nodes t id = Modeswitch.Fault_set.nodes (node_of t id).fault_set
let node_mode t id = (node_of t id).plan.Planner.faulty
let evidence_seen t id = Evidence.Distributor.seen (node_of t id).dist
let mode_changes t = List.rev t.rev_mode_changes

let node_log t id =
  let n = node_of t id in
  (n.authlog, List.rev n.checkpoints)

let auth t = t.auth

let control_bytes t =
  List.fold_left
    (fun acc n -> acc + Net.bytes_sent_by t.net n Net.Control)
    0
    (Topology.nodes t.topo)

let on_actuate t ~orig_flow fn = Inttbl.replace t.actuators orig_flow fn

let ack_key t ~orig ~lane ~period =
  Inttbl.pack ((orig * (Planner.config t.strategy).Planner.degree) + lane) period

(* ------------------------------------------------------------------ *)
(* Creation                                                             *)

let expectations_of (plan : Planner.plan) node =
  Array.of_list
    (List.filter_map
       (fun (fl : Graph.flow) ->
         match
           ( Schedule.node_of plan.Planner.schedule fl.consumer,
             Schedule.node_of plan.Planner.schedule fl.producer )
         with
         | Some cn, Some pn when cn = node && pn <> node ->
           Option.map
             (fun (start, _) -> { flow = fl.flow_id; from_node = pn; start })
             (Schedule.window plan.Planner.schedule fl.consumer)
         | _ -> None)
       (Graph.flows plan.Planner.aug.Augment.graph))

let create ?(config = default_config) ?(behaviors = []) ?(script = []) ?obs
    ~strategy () =
  let eng = Engine.create ~seed:config.seed ?obs () in
  let obs = Engine.obs eng in
  let auth = Auth.create () in
  let topo = Planner.topology strategy in
  let shares = (Planner.config strategy).Planner.shares in
  let net = Net.create eng topo ?shares ~residual_loss:config.residual_loss () in
  let workload = Planner.workload strategy in
  let table = Behavior.table workload ~overrides:behaviors in
  let initial = Planner.initial_plan strategy in
  let f = (Planner.config strategy).Planner.f in
  let margin = Planner.watchdog_margin ~period:(Graph.period workload) in
  let nodes = Inttbl.create 16 in
  List.iter
    (fun id ->
      Inttbl.replace nodes id
        {
          id;
          secret = Auth.gen_key auth ~owner:id;
          plan = initial;
          pending = None;
          pending_waited = 0;
          awaiting_state = [];
          state_received = Hashtbl.create 8;
          inbox = Inttbl.create 256;
          acks = Inttbl.create 64;
          expectations = expectations_of initial id;
          slot_runs = [||];
          watchdog =
            Detect.Watchdog.create ~node:id ~margin
              ~strikes:config.omission_strikes ~obs ();
          attribution =
            Detect.Attribution.create
              ~window:(max 2 (2 * config.omission_strikes))
              ~threshold:(f + 1) ();
          fault_set = Modeswitch.Fault_set.create ();
          dist = Evidence.Distributor.create ~node:id ~obs ();
          invalid_by_src = Hashtbl.create 4;
          accused_forgers = Hashtbl.create 4;
          authlog = Authlog.create ~owner:id;
          checkpoints = [];
          byz = None;
          staged_at = Time.zero;
          running = true;
          plan_since = 0;
          grace_until = Time.zero;
        })
    (Topology.nodes topo);
  let by_id = Array.of_list (List.map (Inttbl.find nodes) (Inttbl.sorted_keys nodes)) in
  {
    config;
    eng;
    obs;
    auth;
    net;
    strategy;
    topo;
    period_len = Graph.period workload;
    behaviors = table;
    golden = Golden.create workload table;
    metrics =
      (let protected_flows =
         List.map
           (fun (fl : Graph.flow) -> fl.flow_id)
           (Planner.protected_sink_flows (Planner.config strategy) workload)
       in
       Metrics.create ~obs ~protected_flows workload);
    nodes;
    by_id;
    script;
    actuators = Inttbl.create 8;
    rev_mode_changes = [];
    total_periods = 0;
    started = false;
  }

(* ------------------------------------------------------------------ *)
(* Routing                                                              *)

(* The correct nodes' union of attributed faults; routing steers around
   them once evidence has spread (§4.4: the new plan avoids them). *)
let refresh_route_avoid t =
  let avoid = Hashtbl.create 8 in
  Array.iter
    (fun n ->
      if n.byz = None then
        List.iter
          (fun x -> Hashtbl.replace avoid x ())
          (Modeswitch.Fault_set.nodes n.fault_set))
    t.by_id;
  Net.set_route_avoid t.net (Table.sorted_keys ~cmp:Int.compare avoid)

(* ------------------------------------------------------------------ *)
(* Evidence pipeline                                                    *)

(* Flood a record to every other node over the reserved control class.
   Unicast-to-all plus hop-wise re-flooding at receivers implements the
   validate-endorse-forward scheme of §4.3. Only records the node's
   distributor admits as [Fresh] are flooded, which happens once per
   record, so each node sends a record to each peer at most once. *)
let flood_record t (n : node) r =
  if n.running then begin
    let size_bytes = Evidence.size_bytes r in
    List.iter
      (fun dst ->
        if dst <> n.id then
          ignore
            (Net.send t.net ~src:n.id ~dst ~cls:Net.Control ~size_bytes (Ev r)))
      (Topology.nodes t.topo)
  end

(* Consult the strategy for the plan matching the node's fault set and
   stage a transition to it (§4.4). Every node reads the same
   [Planner.moves]: an old host ships the state of each migrating task
   it hosted, the new host awaits it; activation happens at a period
   boundary. *)
let maybe_switch_mode t (n : node) =
  let target_faulty =
    Modeswitch.Fault_set.target n.fault_set ~f:(Planner.config t.strategy).Planner.f
  in
  let current_key = n.plan.Planner.faulty in
  let staged_key =
    match n.pending with Some p -> p.Planner.faulty | None -> current_key
  in
  if target_faulty <> current_key && target_faulty <> staged_key then
    match Planner.plan_for t.strategy ~faulty:target_faulty with
    | None -> () (* beyond the f bound: keep the best plan we have *)
    | Some next ->
      let moves = Planner.moves ~from_plan:n.plan ~to_plan:next in
      let ships (m : Planner.move) = m.migrates && m.state_size > 0 in
      if n.running then
        List.iter
          (fun (m : Planner.move) ->
            if m.from_node = n.id && ships m then
              ignore
                (Net.send t.net ~src:n.id ~dst:m.to_node ~cls:Net.Control
                   ~size_bytes:m.state_size (State { task = m.task })))
          moves;
      let awaiting =
        List.filter_map
          (fun (m : Planner.move) ->
            if m.to_node = n.id && ships m && not (Hashtbl.mem n.state_received m.task)
            then Some m.task
            else None)
          moves
      in
      n.pending <- Some next;
      n.pending_waited <- 0;
      n.awaiting_state <- awaiting;
      n.staged_at <- Engine.now t.eng;
      if Obs.enabled t.obs then
        Obs.emit t.obs ~at:(Engine.now t.eng) ~node:n.id Obs.Modeswitch
          (Obs.Mode_staged { faulty = next.Planner.faulty })

(* Apply a fresh, valid statement to the local fault view. Node
   accusations extend the fault set directly. Omission declarations
   carry the non-detector endpoint as the suspected sender: they feed
   attribution (threshold = f+1 distinct counterparties) and also make
   the path actionable on its own, so [Fault_set.target] can evict a
   sender that omits toward fewer than f+1 watchers. Sub-threshold
   suspicions feed corroboration only; timing declarations feed
   attribution but never drive eviction by themselves (a delayed
   message needs no workaround — it arrived). *)
let apply_statement t (n : node) (s : Evidence.statement) =
  if Detect.path_statement_admissible s then begin
    let changed = ref false in
    (match s.accused with
    | Evidence.Node x ->
      if Modeswitch.Fault_set.add_node n.fault_set x then changed := true
    | Evidence.Path (a, b) -> (
      let suspect = if s.Evidence.detector = a then b else a in
      match s.Evidence.fault_class with
      | Evidence.Omission_suspected -> (
        match
          Detect.Attribution.note_suspicion n.attribution ~sender:suspect
            ~watcher:s.Evidence.detector ~period:s.Evidence.period
        with
        | [] -> ()
        | watchers ->
          Obs.Counter.incr
            (Obs.Registry.counter (Obs.registry t.obs) Obs.Detect "corroborations");
          if Obs.enabled t.obs then
            Obs.emit t.obs ~at:(Engine.now t.eng) ~node:n.id Obs.Detect
              (Obs.Corroborated
                 { sender = suspect; watchers = List.length watchers });
          (* The corroborated sender is cut off from each corroborating
             watcher: materialize those paths (suspect = sender) so the
             cover in [Fault_set.target] can act on them. Attribution is
             deliberately NOT fed here — each individual observation is
             still explainable by residual link loss, so framing the
             sender as a faulty *node* would be unsound; eviction via
             path cover is a workaround, and a wrong one self-heals. *)
          List.iter
            (fun w ->
              if w <> suspect then
                if
                  Modeswitch.Fault_set.add_path ~suspect n.fault_set (suspect, w)
                then changed := true)
            watchers)
      | Evidence.Omission ->
        if Modeswitch.Fault_set.add_path ~suspect n.fault_set (a, b) then
          changed := true;
        List.iter
          (fun x ->
            if Modeswitch.Fault_set.add_node n.fault_set x then changed := true)
          (Detect.Attribution.note_path n.attribution ~a ~b)
      | Evidence.Wrong_value | Evidence.Timing | Evidence.Equivocation
      | Evidence.Forged_evidence ->
        ignore (Modeswitch.Fault_set.add_path n.fault_set (a, b));
        List.iter
          (fun x ->
            if Modeswitch.Fault_set.add_node n.fault_set x then changed := true)
          (Detect.Attribution.note_path n.attribution ~a ~b)));
    if !changed then begin
      refresh_route_avoid t;
      maybe_switch_mode t n
    end
  end

(* A node emitting its own evidence: sign (paying the signing cost),
   apply locally, flood. *)
let emit_evidence t (n : node) (s : Evidence.statement) =
  if n.running then begin
    let r = Evidence.sign t.auth n.secret s in
    if Obs.enabled t.obs then
      Obs.emit t.obs ~at:(Engine.now t.eng) ~node:n.id Obs.Evidence
        (Obs.Evidence_emitted
           {
             accused = Evidence.accused_name s.Evidence.accused;
             fault_class = Evidence.fault_class_name s.Evidence.fault_class;
             period = s.Evidence.period;
           });
    Engine.schedule_in t.eng ~delay:(Auth.sign_cost t.auth) (fun _ ->
      match
        Evidence.Distributor.admit ~now:(Engine.now t.eng) n.dist t.auth r
      with
      | Evidence.Distributor.Fresh ->
        apply_statement t n s;
        flood_record t n r
      | Evidence.Distributor.Duplicate | Evidence.Distributor.Invalid -> ())
  end

let statement t (n : node) ~accused ~fault_class ~period ~detail =
  {
    Evidence.accused;
    fault_class;
    detector = n.id;
    period;
    detected_at = Engine.now t.eng;
    detail;
  }

(* Received evidence: validate (paying the verification cost), then
   apply and endorse-forward if fresh. Invalid records are counted
   against the network-level sender (the MAC identifies it), and a
   persistent forger is itself accused — §4.3's defense against
   bogus-evidence floods. *)
let receive_evidence t (n : node) ~src r =
  match Evidence.Distributor.admit ~now:(Engine.now t.eng) n.dist t.auth r with
  | Evidence.Distributor.Fresh ->
    apply_statement t n r.Evidence.statement;
    flood_record t n r
  | Evidence.Distributor.Duplicate -> ()
  | Evidence.Distributor.Invalid ->
    let count =
      1 + Option.value ~default:0 (Hashtbl.find_opt n.invalid_by_src src)
    in
    Hashtbl.replace n.invalid_by_src src count;
    if
      count >= forged_evidence_threshold
      && not (Hashtbl.mem n.accused_forgers src)
    then begin
      Hashtbl.replace n.accused_forgers src ();
      emit_evidence t n
        (statement t n ~accused:(Evidence.Node src)
           ~fault_class:Evidence.Forged_evidence
           ~period:(Engine.now t.eng / t.period_len)
           ~detail:(Printf.sprintf "%d invalid records" count))
    end

(* ------------------------------------------------------------------ *)
(* Task execution                                                       *)

let mutate_value v = Array.map (fun x -> x +. 1009.0) v

(* What actually leaves the node on a given flow, given its Byzantine
   behaviour, in three questions a correct node answers without
   allocating: is the output to [dst] suppressed, which value goes out,
   and after what extra delay. The digest flow to the checker is
   special-cased for equivocation. *)
let suppresses (n : node) ~dst =
  match n.byz with
  | Some (Fault.Crash | Fault.Omit_outputs) -> true
  | Some (Fault.Omit_to targets) -> List.mem dst targets
  | _ -> false

let outgoing_value (n : node) ~to_checker value =
  match n.byz with
  | Some Fault.Corrupt_outputs -> mutate_value value
  | Some Fault.Equivocate when not to_checker ->
    (* Clean story for the checker, garbage for the consumers. *)
    mutate_value value
  | _ -> value

let output_delay (n : node) =
  match n.byz with Some (Fault.Delay_outputs d) -> d | _ -> Time.zero

(* The lowest lane of an input group whose message for the period is in
   [inbox], or -1: a behaviour sees exactly one input per original flow,
   like the golden executor, and the sinks fall back the same way. *)
let live_lane inbox (g : Augment.input_group) period =
  let lanes = g.Augment.lane_flows in
  let i = ref 0 in
  while
    !i < Array.length lanes
    && not (Inttbl.mem inbox (inbox_key ~flow:lanes.(!i).Graph.flow_id ~period))
  do
    incr i
  done;
  if !i < Array.length lanes then !i else -1

(* A task's inputs for the period from [inbox], one per input group
   with a live lane, ascending by original flow. [on_input] sees each
   chosen flow and entry, from the highest original flow down. *)
let gather_inputs inbox groups period ~on_input =
  let inputs = ref [] in
  for k = Array.length groups - 1 downto 0 do
    let g = groups.(k) in
    let i = live_lane inbox g period in
    if i >= 0 then begin
      let fl = g.Augment.lane_flows.(i) in
      let e = Inttbl.find inbox (inbox_key ~flow:fl.flow_id ~period) in
      on_input fl e;
      inputs := { Behavior.orig_flow = g.Augment.orig_flow; value = e.value } :: !inputs
    end
  done;
  !inputs

(* A compute task missing any of its input groups abstains rather than
   computing from partial inputs: a partial result would be *wrong* yet
   match the checker's replay of the same partial inbox, poisoning the
   lane undetectably. Abstention sends Nacks, so downstream watchdogs
   stay quiet and suspicion stays pinned at the first hop; the sink
   falls back to an intact sibling lane. Every producer is placed (the
   planner places every augmented task), so every group is required. *)
let abstains (task : Task.t) groups inputs =
  task.Task.kind = Task.Compute && List.compare_length_with inputs (Array.length groups) < 0

(* Send one data message; payload digests let checkers and consumers
   cross-validate without re-sending full values. *)
let send_data t (n : node) ~flow ~period ~dst_node ~size ~to_checker value
    ~digest =
  if not (suppresses n ~dst:dst_node) then begin
    let v = outgoing_value n ~to_checker value in
    (* [digest] is [value]'s; only a Byzantine mutation needs a new one. *)
    let digest = if v == value then digest else Behavior.value_digest v in
    Authlog.append n.authlog (Authlog.Sent { flow; period; digest });
    let msg = Data { flow; period; value = v; digest } in
    let extra = output_delay n in
    if Time.equal extra Time.zero then
      ignore (Net.send t.net ~src:n.id ~dst:dst_node ~cls:Net.Data ~size_bytes:size msg)
    else
      Engine.schedule_in t.eng ~delay:extra (fun _ ->
        ignore
          (Net.send t.net ~src:n.id ~dst:dst_node ~cls:Net.Data ~size_bytes:size msg))
  end

(* Acknowledge a received input to the producer's checker so that
   equivocation (clean digest to the checker, garbage to consumers)
   is detectable. *)
let send_ack t (n : node) plan ~producer_aug ~period (e : entry) =
  let aug = plan.Planner.aug in
  let orig = Augment.orig_of aug producer_aug in
  if Augment.is_protected aug orig then
    match Augment.checker_of aug orig with
    | None -> ()
    | Some checker_tid -> (
      match Schedule.node_of plan.Planner.schedule checker_tid with
      | Some checker_node ->
        ignore
          (Net.send t.net ~src:n.id ~dst:checker_node ~cls:Net.Control
             ~size_bytes:48
             (Ack
                {
                  orig_task = orig;
                  lane = Augment.lane_of aug producer_aug;
                  period;
                  digest = e.digest;
                }))
      | None -> ())

let send_nacks t (n : node) plan tid period =
  if not (suppresses n ~dst:(-1)) then
    List.iter
      (fun (fl : Graph.flow) ->
        match Schedule.node_of plan.Planner.schedule fl.consumer with
        | None -> ()
        | Some dst_node ->
          ignore
            (Net.send t.net ~src:n.id ~dst:dst_node ~cls:Net.Data ~size_bytes:16
               (Nack { flow = fl.flow_id; period })))
      (Graph.consumers_of plan.Planner.aug.Augment.graph tid)

let run_compute_task t (n : node) plan tid period =
  let aug = plan.Planner.aug in
  let g = aug.Augment.graph in
  let task = Graph.task g tid in
  let groups = Augment.inputs_of aug tid in
  (* Cross-report received inputs to the producers' checkers. *)
  let inputs =
    gather_inputs n.inbox groups period ~on_input:(fun (fl : Graph.flow) e ->
        send_ack t n plan ~producer_aug:fl.producer ~period e)
  in
  let orig = Augment.orig_of aug tid in
  let behavior = Behavior.find t.behaviors orig in
  let output =
    if abstains task groups inputs then None else behavior ~period ~inputs
  in
  match output with
  | None -> send_nacks t n plan tid period
  | Some value ->
    let digest = Behavior.value_digest value in
    Authlog.append n.authlog
      (Authlog.Executed { task = tid; period; output_digest = digest });
    (* Physical sources define the reference inputs: record what was
       actually emitted (after any Byzantine mutation of this node). *)
    if task.Task.kind = Task.Source && not (suppresses n ~dst:(-1)) then
      Golden.note_source t.golden ~task:orig ~period
        (outgoing_value n ~to_checker:false value);
    List.iter
      (fun (fl : Graph.flow) ->
        match Schedule.node_of plan.Planner.schedule fl.consumer with
        | None -> ()
        | Some dst_node ->
          let to_checker =
            match Augment.role_of aug fl.consumer with
            | Augment.Checker _ -> true
            | Augment.Original | Augment.Replica _ | Augment.Guard _ -> false
          in
          send_data t n ~flow:fl.flow_id ~period ~dst_node ~size:fl.msg_size
            ~to_checker value ~digest)
      (Graph.consumers_of g tid)

(* Checker (§4.2): replay each lane's output from the inputs that lane
   actually received (carried alongside the digest in a real system;
   read from the lane's inbox in the simulation) and accuse on
   mismatch. Also compare last period's consumer acknowledgements
   against the digest the lane claimed, to catch equivocation. *)
let run_checker t (n : node) plan tid period =
  let aug = plan.Planner.aug in
  let g = aug.Augment.graph in
  let orig = Augment.orig_of aug tid in
  let behavior = Behavior.find t.behaviors orig in
  let lanes = Augment.replicas_of aug orig in
  List.iter
    (fun lane_tid ->
      let lane = Augment.lane_of aug lane_tid in
      match Schedule.node_of plan.Planner.schedule lane_tid with
      | None -> ()
      | Some lane_node -> (
        (* The digest flow from this lane to us. *)
        let digest_flow =
          List.find_opt
            (fun (fl : Graph.flow) -> fl.producer = lane_tid)
            (Graph.producers_of g tid)
        in
        match digest_flow with
        | None -> ()
        | Some fl -> (
          (match Inttbl.find_opt n.inbox (inbox_key ~flow:fl.flow_id ~period) with
          | None -> () (* the watchdog reports the omission *)
          | Some claimed -> (
            match Inttbl.find t.nodes lane_node with
            | exception Not_found -> ()
            | lane_host ->
              let lane_groups = Augment.inputs_of aug lane_tid in
              let lane_inputs =
                gather_inputs lane_host.inbox lane_groups period ~on_input:(fun _ _ -> ())
              in
              (* Mirror of the lane's abstention rule: replay must
                 predict silence exactly when the lane was entitled to
                 abstain, so a lane that *computed* from partial inputs
                 is caught (expected = None, it sent anyway) and an
                 abstaining lane is not accused. *)
              let expected =
                if abstains (Graph.task g lane_tid) lane_groups lane_inputs then None
                else behavior ~period ~inputs:lane_inputs
              in
              let ok =
                match expected with
                | None -> false (* it sent although replay says silence *)
                | Some v ->
                  Int64.equal (Behavior.value_digest v) claimed.digest
              in
              if Obs.enabled t.obs then
                Obs.emit t.obs ~at:(Engine.now t.eng) ~node:n.id Obs.Detect
                  (Obs.Checker_replay { task = orig; lane; period; ok });
              if not ok then
                emit_evidence t n
                  (statement t n ~accused:(Evidence.Node lane_node)
                     ~fault_class:Evidence.Wrong_value ~period
                     ~detail:
                       (Printf.sprintf "task %d lane %d replay mismatch" orig lane))));
          (* Equivocation check for the previous period — only when that
             period already ran under the current plan, so the digest
             flow id means the same thing it meant then. *)
          if period > 0 && period - 1 >= n.plan_since then
            let prev = period - 1 in
            match Inttbl.find_opt n.inbox (inbox_key ~flow:fl.flow_id ~period:prev) with
            | None -> ()
            | Some claimed -> (
              match Inttbl.find_opt n.acks (ack_key t ~orig ~lane ~period:prev) with
              | None -> ()
              | Some digests ->
                if List.exists (fun d -> not (Int64.equal d claimed.digest)) !digests
                then
                  emit_evidence t n
                    (statement t n ~accused:(Evidence.Node lane_node)
                       ~fault_class:Evidence.Equivocation ~period:prev
                       ~detail:
                         (Printf.sprintf "task %d lane %d equivocated" orig lane))))))
    lanes

(* The sink acts on the primary lane's value, or the lowest live backup
   lane (§1: use some replicas without waiting for the others). *)
let run_sink t (n : node) plan tid period =
  let aug = plan.Planner.aug in
  Array.iter
    (fun (g : Augment.input_group) ->
      let i = live_lane n.inbox g period in
      if i >= 0 then begin
        let fl = g.lane_flows.(i) in
        let e = Inttbl.find n.inbox (inbox_key ~flow:fl.flow_id ~period) in
        let lane = match Augment.orig_flow_of aug fl.flow_id with Some (_, l) -> l | None -> 0 in
        send_ack t n plan ~producer_aug:fl.producer ~period e;
        Metrics.record_delivery t.metrics ~orig_flow:g.orig_flow ~period ~value:e.value
          ~arrived:e.arrived ~lane;
        match Inttbl.find t.actuators g.orig_flow with
        | act -> act ~period ~value:e.value ~at:(Engine.now t.eng)
        | exception Not_found -> ()
      end)
    (Augment.inputs_of aug tid)

let role_name = function
  | Augment.Original -> "original"
  | Augment.Replica _ -> "replica"
  | Augment.Checker _ -> "checker"
  | Augment.Guard _ -> "guard"

let exec_task t (n : node) plan tid period =
  if n.running && n.plan == plan then begin
    let role = Augment.role_of plan.Planner.aug tid in
    if Obs.enabled t.obs then
      Obs.emit t.obs ~at:(Engine.now t.eng) ~node:n.id Obs.Runtime
        (Obs.Lane_exec
           {
             task = Augment.orig_of plan.Planner.aug tid;
             period;
             role = role_name role;
           });
    match role with
    | Augment.Guard _ -> ()
    | Augment.Checker _ -> run_checker t n plan tid period
    | Augment.Original | Augment.Replica _ ->
      let task = Graph.task plan.Planner.aug.Augment.graph tid in
      if task.Task.kind = Task.Sink then run_sink t n plan tid period
      else run_compute_task t n plan tid period
  end

(* ------------------------------------------------------------------ *)
(* Message reception                                                    *)

(* Accept a data message only if the current schedule says [src] is the
   one to send that flow; during a transition senders briefly disagree,
   which is the §4.4 "confusion" BTR tolerates. *)
let data_admissible (n : node) ~src ~flow =
  match Graph.flow n.plan.Planner.aug.Augment.graph flow with
  | exception Invalid_argument _ -> false (* not a flow of this plan *)
  | fl -> (
    match Schedule.node_of n.plan.Planner.schedule fl.producer with
    | Some expected -> expected = src
    | None -> false)

let on_receive t (n : node) (r : msg Net.recv) =
  if n.running then
    match r.Net.payload with
    | Data { flow; period; value; digest } ->
      if data_admissible n ~src:r.Net.src ~flow then begin
        let key = inbox_key ~flow ~period in
        if not (Inttbl.mem n.inbox key) then begin
          Inttbl.replace n.inbox key
            { value; digest; arrived = r.Net.delivered_at; from = r.Net.src };
          Authlog.append n.authlog
            (Authlog.Received { flow; period; digest; from_node = r.Net.src })
        end;
        match
          Detect.Watchdog.note_arrival n.watchdog ~flow ~period
            ~at:r.Net.delivered_at
        with
        | None -> ()
        | Some late ->
          (* One declaration per path suffices; attribution is set-based
             and re-flooding the same suspicion wastes control bandwidth. *)
          if
            Time.compare (Engine.now t.eng) n.grace_until >= 0
            && not
                 (Modeswitch.Fault_set.mem_path n.fault_set
                    (late.Detect.Watchdog.from_node, n.id))
          then
            emit_evidence t n
              (statement t n
                 ~accused:(Evidence.path late.Detect.Watchdog.from_node n.id)
                 ~fault_class:Evidence.Timing ~period
                 ~detail:
                   (Printf.sprintf "flow %d late by %s" flow
                      (Time.to_string late.Detect.Watchdog.lateness)))
      end
    | Nack { flow; period } ->
      ignore
        (Detect.Watchdog.note_arrival n.watchdog ~flow ~period
           ~at:r.Net.delivered_at)
    | Ack { orig_task; lane; period; digest } ->
      let key = ack_key t ~orig:orig_task ~lane ~period in
      let l =
        match Inttbl.find n.acks key with
        | l -> l
        | exception Not_found ->
          let l = ref [] in
          Inttbl.replace n.acks key l;
          l
      in
      l := digest :: !l
    | Ev record ->
      (* Validation costs CPU; the guard task's reservation covers it,
         and the latency is modelled here. *)
      Engine.schedule_in t.eng ~delay:(Auth.verify_cost t.auth) (fun _ ->
        if n.running then receive_evidence t n ~src:r.Net.src record)
    | State { task } -> Hashtbl.replace n.state_received task ()

(* ------------------------------------------------------------------ *)
(* Period boundaries                                                    *)

let install_expectations t (n : node) period =
  let base = Time.mul t.period_len period in
  Array.iter
    (fun x ->
      Detect.Watchdog.expect n.watchdog ~flow:x.flow ~period ~from_node:x.from_node
        ~deadline:(Time.add base x.start))
    n.expectations

(* One event per slot of the node under [plan], built when the node
   takes the plan and scheduled again every period. A slot of period p
   fires at p * period_len + finish, so the event reads its period off
   the clock. *)
let slot_runs_of t (n : node) plan =
  Array.of_list
    (List.map
       (fun (s : Schedule.slot) ->
         ( s.finish,
           fun eng ->
             exec_task t n plan s.task (Time.sub (Engine.now eng) s.finish / t.period_len) ))
       (Schedule.slots_on plan.Planner.schedule n.id))

let install_slots t (n : node) period =
  let base = Time.mul t.period_len period in
  Array.iter
    (fun (finish, run) -> Engine.schedule t.eng ~at:(Time.add base finish) run)
    n.slot_runs

let sweep_watchdog t (n : node) =
  let misses = Detect.Watchdog.sweep n.watchdog ~now:(Engine.now t.eng) in
  (* [suspected]: the senders this sweep has published a suspicion of. *)
  let step suspected (m : Detect.Watchdog.miss) =
    let from_node = m.Detect.Watchdog.miss_from in
    if
      Time.compare (Engine.now t.eng) n.grace_until < 0
      || Modeswitch.Fault_set.mem_path n.fault_set (from_node, n.id)
    then suspected
    else if m.Detect.Watchdog.declared then begin
      emit_evidence t n
        (statement t n
           ~accused:(Evidence.path from_node n.id)
           ~fault_class:Evidence.Omission ~period:m.Detect.Watchdog.miss_period
           ~detail:(Printf.sprintf "flow %d never arrived" m.Detect.Watchdog.miss_flow));
      suspected
    end
    else if List.mem from_node suspected then suspected
    else begin
      (* Sub-threshold account: not enough for a declaration on this
         watcher alone, but f other watchers may be seeing the same
         silence — publish a suspicion for corroboration, once per
         sender per sweep. *)
      Obs.Counter.incr
        (Obs.Registry.counter (Obs.registry t.obs) Obs.Detect "watchdog-suspect");
      if Obs.enabled t.obs then
        Obs.emit t.obs ~at:(Engine.now t.eng) ~node:n.id Obs.Detect
          (Obs.Watchdog_suspect
             {
               flow = m.Detect.Watchdog.miss_flow;
               period = m.Detect.Watchdog.miss_period;
               from_node;
               account = m.Detect.Watchdog.account;
             });
      emit_evidence t n
        (statement t n
           ~accused:(Evidence.path from_node n.id)
           ~fault_class:Evidence.Omission_suspected
           ~period:m.Detect.Watchdog.miss_period
           ~detail:
             (Printf.sprintf "flow %d missing, strike %d" m.Detect.Watchdog.miss_flow
                m.Detect.Watchdog.account));
      from_node :: suspected
    end
  in
  ignore (List.fold_left step [] misses : int list)

let activate_pending t (n : node) =
  match n.pending with
  | None -> ()
  | Some next ->
    let ready =
      List.for_all (Hashtbl.mem n.state_received) n.awaiting_state
      || n.pending_waited >= state_wait_boundaries
    in
    if ready then begin
      n.plan <- next;
      n.expectations <- expectations_of next n.id;
      n.slot_runs <- slot_runs_of t n next;
      n.pending <- None;
      n.pending_waited <- 0;
      n.awaiting_state <- [];
      n.plan_since <- Engine.now t.eng / t.period_len;
      n.grace_until <- Time.add (Engine.now t.eng) (Time.mul t.period_len 2);
      t.rev_mode_changes <-
        (Engine.now t.eng, n.id, next.Planner.faulty) :: t.rev_mode_changes;
      if Obs.enabled t.obs then
        Obs.emit t.obs ~at:(Engine.now t.eng) ~node:n.id Obs.Modeswitch
          (Obs.Mode_activated
             {
               faulty = next.Planner.faulty;
               latency = Time.sub (Engine.now t.eng) n.staged_at;
             })
    end
    else n.pending_waited <- n.pending_waited + 1

let babble t (n : node) period =
  match n.byz with
  | Some (Fault.Babble { bogus_per_period }) ->
    for i = 1 to bogus_per_period do
      let bogus =
        {
          Evidence.statement =
            statement t n
              ~accused:(Evidence.Node ((n.id + i) mod Topology.node_count t.topo))
              ~fault_class:Evidence.Wrong_value ~period
              ~detail:"fabricated";
          tag = Auth.forge_tag ();
        }
      in
      let size_bytes = Evidence.size_bytes bogus in
      List.iter
        (fun dst ->
          if dst <> n.id then
            ignore
              (Net.send t.net ~src:n.id ~dst ~cls:Net.Control ~size_bytes
                 (Ev bogus)))
        (Topology.nodes t.topo)
    done
  | _ -> ()

(* Outputs the governing mode intentionally no longer carries (shed low
   criticality, or endpoints lost with their faulty node) are judged
   Shed, even when the sink itself is gone and cannot say so. The
   governing mode is the most advanced plan among running nodes; ties
   break by node id, so every run picks the same one. *)
let shed_outputs t =
  let reference =
    Array.fold_left
      (fun best n ->
        if not n.running then best
        else
          match best with
          | Some b
            when List.length b.Planner.faulty
                 >= List.length n.plan.Planner.faulty ->
            best
          | _ -> Some n.plan)
      None t.by_id
  in
  match reference with None -> [] | Some plan -> plan.Planner.dropped

let boundary t period =
  (* Node order here fixes the order of watchdog sweeps, plan
     activations and checkpoint signing — all trace-visible. *)
  Array.iter (fun n -> if n.running then sweep_watchdog t n) t.by_id;
  (* Judge the finished period under the plans that actually governed
     it, before anyone activates a pending plan for the next one. *)
  if period > 0 then begin
    Metrics.finalize_period t.metrics ~golden:t.golden ~period:(period - 1)
      ~shed:(shed_outputs t)
  end;
  Array.iter (fun n -> if n.running then activate_pending t n) t.by_id;
  if period < t.total_periods then
    Array.iter
      (fun n ->
        if n.running then begin
          (* Commit the log before entering the new period: the guard
             task's CPU reservation covers checkpoint signing (§4.1). *)
          n.checkpoints <- Authlog.checkpoint n.authlog t.auth n.secret :: n.checkpoints;
          install_expectations t n period;
          install_slots t n period;
          babble t n period
        end)
      t.by_id

(* ------------------------------------------------------------------ *)
(* Fault script and run loop                                            *)

let apply_script_event t (ev : Fault.event) =
  let n = node_of t ev.Fault.node in
  n.byz <- Some ev.Fault.behavior;
  if ev.Fault.behavior = Fault.Crash then n.running <- false;
  (* A compromised node also controls its relaying of transit traffic
     (multi-hop topologies): silence and delays apply there too. *)
  (match ev.Fault.behavior with
  | Fault.Crash | Fault.Omit_outputs ->
    Net.set_relay_policy t.net n.id (fun ~src:_ ~dst:_ ~cls:_ -> false)
  | Fault.Omit_to targets ->
    Net.set_relay_policy t.net n.id (fun ~src:_ ~dst ~cls:_ ->
        not (List.mem dst targets))
  | Fault.Delay_outputs d -> Net.set_relay_delay t.net n.id d
  | Fault.Corrupt_outputs | Fault.Equivocate | Fault.Babble _ -> ());
  Metrics.record_injection t.metrics ~at:(Engine.now t.eng) ~node:ev.Fault.node
    ~what:(Fault.behavior_name ev.Fault.behavior)

let run t ~horizon =
  if t.started then invalid_arg "Runtime.run: already ran";
  t.started <- true;
  t.total_periods <- horizon / t.period_len;
  Array.iter
    (fun n ->
      Net.set_handler t.net n.id (on_receive t n);
      n.slot_runs <- slot_runs_of t n n.plan)
    t.by_id;
  List.iter
    (fun (ev : Fault.event) ->
      Engine.schedule t.eng ~at:ev.Fault.at (fun _ -> apply_script_event t ev))
    t.script;
  for p = 0 to t.total_periods do
    Engine.schedule t.eng ~at:(Time.mul t.period_len p) (fun _ -> boundary t p)
  done;
  Engine.run ~until:horizon t.eng
