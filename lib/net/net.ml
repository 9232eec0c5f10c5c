open Btr_util
module Engine = Btr_sim.Engine
module Obs = Btr_obs.Obs

type node_id = Topology.node_id
type cls = Data | Control

let cls_name = function Data -> "data" | Control -> "control"

type shares = { data_frac : float; control_frac : float }

(* Without explicit shares: 100% of a link split evenly among the
   members of the most-populated link, 80/20 data/control. *)
let shares_for topo = function
  | Some s -> s
  | None ->
    let worst =
      List.fold_left
        (fun acc (l : Topology.link) -> Stdlib.max acc (List.length l.members))
        2 (Topology.links topo)
    in
    let per = 1.0 /. float_of_int worst in
    { data_frac = 0.8 *. per; control_frac = 0.2 *. per }

let reservation_rate shares (link : Topology.link) cls =
  let f = match cls with Data -> shares.data_frac | Control -> shares.control_frac in
  Stdlib.max 1 (int_of_float (float_of_int link.bandwidth_bps *. f))

(* Serialization time of [size] bytes at [rate] bytes/s, in µs, >= 1. *)
let serialize_time ~size ~rate =
  Stdlib.max 1 (size * 1_000_000 / rate)

let link_transfer_time shares ~cls ~size_bytes (link : Topology.link) =
  let rate = reservation_rate shares link cls in
  Time.add (serialize_time ~size:size_bytes ~rate) link.latency

(* One link-cost closure serves every query, reading the size of the
   message at hand from a cell, so a query allocates nothing. *)
let transfer_time routes shares ~cls =
  let size = ref 0 in
  let link_cost l = link_transfer_time shares ~cls ~size_bytes:!size l in
  fun ~src ~dst ~size_bytes ->
    size := size_bytes;
    Topology.path_cost routes ~link_cost ~src ~dst

type 'a recv = {
  src : node_id;
  dst : node_id;
  payload : 'a;
  size_bytes : int;
  cls : cls;
  sent_at : Time.t;
  delivered_at : Time.t;
  hops : int;
}

(* A message in flight, scheduled hop by hop. [wake] is its only
   callback; [phase] says what the next firing does. Flights are pooled
   per network (see [take]), so a record and its [wake] are built once
   and serve message after message; every field a send sets is
   mutable. *)
type phase =
  | Arriving  (* the current hop's far end, [next], receives it *)
  | Relaying  (* a relay's extra delay is over: [here] pushes the next hop *)
  | Local  (* src = dst: delivered without touching a link *)

type 'a flight = {
  mutable f_src : node_id;
  mutable f_dst : node_id;
  mutable f_payload : 'a;
      (* the last message's payload stays until the flight is reused *)
  mutable f_size : int;
  mutable f_cls : cls;
  mutable f_sent_at : Time.t;
  mutable phase : phase;
  mutable here : node_id;  (* the node pushing the current hop *)
  mutable next : node_id;  (* the node the current hop delivers to *)
  mutable rest : Topology.hop list;  (* the hops after the current one *)
  mutable hops : int;  (* hops completed *)
  mutable wake : Engine.t -> unit;
}

(* The per-pair tables key on one {!Inttbl.pack}ed int, so a lookup
   hashes a machine word and allocates no tuple. [create] checks that
   every node and link id fits in [id_bits], one bit short of a packed
   half, so the class bit [with_cls] appends cannot overflow; [route]
   keeps other ids (not nodes) out of its table. *)
let id_bits = 30
let fits id = id lsr id_bits = 0
let with_cls k cls = (k lsl 1) lor (match cls with Data -> 0 | Control -> 1)

type 'a t = {
  eng : Engine.t;
  obs : Obs.t;
  topo : Topology.t;
  shares : shares;
  residual_loss : float;
  handlers : ('a recv -> unit) Inttbl.t;
  (* Per (sender, link, class), by [with_cls (Inttbl.pack sender link)]:
     when the sender's slice frees up. *)
  busy_until : Time.t Inttbl.t;
  relay_policy : (src:node_id -> dst:node_id -> cls:cls -> bool) Inttbl.t;
  relay_delay : Time.t Inttbl.t;
  mutable route_avoid : node_id list;
  sweeps : Topology.sweeps;  (* shared by every [router] this network builds *)
  mutable router : Topology.router;  (* routes around [route_avoid] *)
  (* [Inttbl.pack src dst] -> the route [router] holds; flushed when it is
     replaced. *)
  routes : Topology.hop list option Inttbl.t;
  loss_rng : Rng.t;
  (* Registry counters: always on, one field write per bump. *)
  sent : Obs.Counter.t;
  delivered : Obs.Counter.t;
  lost : Obs.Counter.t;
  relay_dropped : Obs.Counter.t;
  data_bytes : Obs.Counter.t;
  control_bytes : Obs.Counter.t;
  by_sender : int Inttbl.t;  (* by [with_cls sender] *)
  (* Free flights: [pool.(0 .. pooled - 1)]. *)
  mutable pool : 'a flight array;
  mutable pooled : int;
}

let create eng topo ?shares ?(residual_loss = 0.0) () =
  let shares = shares_for topo shares in
  List.iter
    (fun (l : Topology.link) ->
      let n = float_of_int (List.length l.members) in
      if n *. (shares.data_frac +. shares.control_frac) > 1.0 +. 1e-9 then
        invalid_arg
          (Printf.sprintf "Net.create: link %d reservations exceed capacity"
             l.link_id))
    (Topology.links topo);
  let check_id what id =
    if not (fits id) then
      invalid_arg
        (Printf.sprintf "Net.create: %s id %d outside 0..%d" what id ((1 lsl id_bits) - 1))
  in
  List.iter (check_id "node") (Topology.nodes topo);
  List.iter (fun (l : Topology.link) -> check_id "link" l.link_id) (Topology.links topo);
  let obs = Engine.obs eng in
  let reg = Obs.registry obs in
  let sweeps = Topology.sweeps topo in
  {
    eng;
    obs;
    topo;
    shares;
    residual_loss;
    handlers = Inttbl.create 16;
    busy_until = Inttbl.create 64;
    relay_policy = Inttbl.create 8;
    relay_delay = Inttbl.create 8;
    route_avoid = [];
    sweeps;
    router = Topology.router sweeps ~avoid:[];
    routes = Inttbl.create 64;
    loss_rng = Rng.split (Engine.rng eng);
    sent = Obs.Registry.counter reg Obs.Net "msgs-sent";
    delivered = Obs.Registry.counter reg Obs.Net "msgs-delivered";
    lost = Obs.Registry.counter reg Obs.Net "msgs-lost";
    relay_dropped = Obs.Registry.counter reg Obs.Net "relay-dropped";
    data_bytes = Obs.Registry.counter reg Obs.Net "bytes.data";
    control_bytes = Obs.Registry.counter reg Obs.Net "bytes.control";
    by_sender = Inttbl.create 16;
    pool = [||];
    pooled = 0;
  }

let topology t = t.topo
let set_handler t n f = Inttbl.replace t.handlers n f

let reserved_rate t link cls = reservation_rate t.shares link cls

let charge_bytes t sender cls size =
  Obs.Counter.add
    (match cls with Data -> t.data_bytes | Control -> t.control_bytes)
    size;
  let key = with_cls sender cls in
  let prev = match Inttbl.find t.by_sender key with b -> b | exception Not_found -> 0 in
  Inttbl.replace t.by_sender key (prev + size)

let bytes_sent_by t n cls =
  match Inttbl.find t.by_sender (with_cls n cls) with b -> b | exception Not_found -> 0

let route t ~src ~dst =
  if not (fits src && fits dst) then Topology.path t.router ~src ~dst
  else
    let k = Inttbl.pack src dst in
    match Inttbl.find t.routes k with
    | r -> r
    | exception Not_found ->
      let r = Topology.path t.router ~src ~dst in
      Inttbl.replace t.routes k r;
      r

let deliver t msg =
  Obs.Counter.incr t.delivered;
  if Obs.enabled t.obs then
    Obs.emit t.obs ~at:msg.delivered_at ~node:msg.dst Obs.Net
      (Obs.Msg_delivered
         {
           src = msg.src;
           dst = msg.dst;
           cls = cls_name msg.cls;
           bytes = msg.size_bytes;
           latency = Time.sub msg.delivered_at msg.sent_at;
           hops = msg.hops;
         });
  match Inttbl.find t.handlers msg.dst with
  | f -> f msg
  | exception Not_found -> ()

let relay_allows t node ~src ~dst ~cls =
  match Inttbl.find t.relay_policy node with
  | p -> p ~src ~dst ~cls
  | exception Not_found -> true

let relay_extra_delay t node =
  match Inttbl.find t.relay_delay node with d -> d | exception Not_found -> Time.zero

(* A flight has at most one event queued at a time, so once it is
   delivered, lost or dropped nothing refers to it and it goes back to
   the pool. *)
let release t fl =
  let n = t.pooled in
  if n = Array.length t.pool then begin
    let grown = Array.make (Stdlib.max 8 (2 * n)) fl in
    Array.blit t.pool 0 grown 0 n;
    t.pool <- grown
  end;
  t.pool.(n) <- fl;
  t.pooled <- n + 1

(* The recv is built before the flight is released, and the flight is
   released before the handler runs, so a handler that sends reuses
   it. *)
let deliver_flight t fl =
  let msg =
    {
      src = fl.f_src;
      dst = fl.f_dst;
      payload = fl.f_payload;
      size_bytes = fl.f_size;
      cls = fl.f_cls;
      sent_at = fl.f_sent_at;
      delivered_at = Engine.now t.eng;
      hops = fl.hops;
    }
  in
  release t fl;
  deliver t msg

(* [fl.here] pushes the message onto the link of [h]: it queues behind
   the sender's earlier messages on that (link, class) slice, and
   arrives at [h.next] after serialization and propagation. *)
let push_hop t fl (h : Topology.hop) rest =
  let link = h.link in
  let rate = reserved_rate t link fl.f_cls in
  let key = with_cls (Inttbl.pack fl.here link.link_id) fl.f_cls in
  let free =
    match Inttbl.find t.busy_until key with f -> f | exception Not_found -> Time.zero
  in
  let start = Time.max (Engine.now t.eng) free in
  let departure = Time.add start (serialize_time ~size:fl.f_size ~rate) in
  Inttbl.replace t.busy_until key departure;
  charge_bytes t fl.here fl.f_cls fl.f_size;
  fl.phase <- Arriving;
  fl.next <- h.next;
  fl.rest <- rest;
  Engine.schedule t.eng ~at:(Time.add departure link.latency) fl.wake

let arrive t fl =
  fl.hops <- fl.hops + 1;
  let nxt = fl.next in
  if t.residual_loss > 0.0 && Rng.chance t.loss_rng t.residual_loss then begin
    Obs.Counter.incr t.lost;
    if Obs.enabled t.obs then
      Obs.emit t.obs ~at:(Engine.now t.eng) ~node:nxt Obs.Net
        (Obs.Msg_lost { src = fl.f_src; dst = fl.f_dst; cls = cls_name fl.f_cls });
    release t fl
  end
  else
    match fl.rest with
    | [] -> deliver_flight t fl
    | h :: rest ->
      if not (relay_allows t nxt ~src:fl.f_src ~dst:fl.f_dst ~cls:fl.f_cls) then begin
        Obs.Counter.incr t.relay_dropped;
        if Obs.enabled t.obs then
          Obs.emit t.obs ~at:(Engine.now t.eng) ~node:nxt Obs.Net
            (Obs.Relay_dropped
               { relay = nxt; src = fl.f_src; dst = fl.f_dst; cls = cls_name fl.f_cls });
        release t fl
      end
      else begin
        fl.here <- nxt;
        let extra = relay_extra_delay t nxt in
        if Time.equal extra Time.zero then push_hop t fl h rest
        else begin
          fl.phase <- Relaying;
          Engine.schedule_in t.eng ~delay:extra fl.wake
        end
      end

let wake t fl =
  match fl.phase with
  | Arriving -> arrive t fl
  | Relaying -> (
    match fl.rest with h :: rest -> push_hop t fl h rest | [] -> assert false)
  | Local -> deliver_flight t fl

(* A flight for one send: a pooled one, or a new one with its [wake]
   closure, whose placeholder fields the reset below overwrites. *)
let take t ~src ~dst ~cls ~size_bytes ~sent_at payload path =
  let fl =
    if t.pooled > 0 then begin
      t.pooled <- t.pooled - 1;
      t.pool.(t.pooled)
    end
    else begin
      let fl =
        {
          f_src = src;
          f_dst = dst;
          f_payload = payload;
          f_size = 0;
          f_cls = cls;
          f_sent_at = sent_at;
          phase = Local;
          here = src;
          next = dst;
          rest = [];
          hops = 0;
          wake = ignore;
        }
      in
      fl.wake <- (fun _ -> wake t fl);
      fl
    end
  in
  fl.f_src <- src;
  fl.f_dst <- dst;
  fl.f_payload <- payload;
  fl.f_size <- size_bytes;
  fl.f_cls <- cls;
  fl.f_sent_at <- sent_at;
  fl.phase <- Local;
  fl.here <- src;
  fl.next <- dst;
  fl.rest <- path;
  fl.hops <- 0;
  fl

let send t ~src ~dst ~cls ~size_bytes payload =
  match route t ~src ~dst with
  | None -> false
  | Some path ->
    Obs.Counter.incr t.sent;
    let sent_at = Engine.now t.eng in
    if Obs.enabled t.obs then
      Obs.emit t.obs ~at:sent_at ~node:src Obs.Net
        (Obs.Msg_sent { src; dst; cls = cls_name cls; bytes = size_bytes });
    let fl = take t ~src ~dst ~cls ~size_bytes ~sent_at payload path in
    (match path with
    | [] ->
      (* Local delivery still goes through the event queue for ordering. *)
      Engine.schedule_in t.eng ~delay:Time.zero fl.wake
    | h :: rest -> push_hop t fl h rest);
    true

let set_relay_policy t n p = Inttbl.replace t.relay_policy n p
let set_relay_delay t n d = Inttbl.replace t.relay_delay n d
let set_route_avoid t ns =
  if ns <> t.route_avoid then begin
    t.route_avoid <- ns;
    t.router <- Topology.router t.sweeps ~avoid:ns;
    Inttbl.reset t.routes
  end

type stats = {
  messages_sent : int;
  messages_delivered : int;
  messages_lost : int;
  messages_dropped_by_relay : int;
  bytes_sent : int;
  control_bytes_sent : int;
}

let stats t =
  {
    messages_sent = Obs.Counter.value t.sent;
    messages_delivered = Obs.Counter.value t.delivered;
    messages_lost = Obs.Counter.value t.lost;
    messages_dropped_by_relay = Obs.Counter.value t.relay_dropped;
    bytes_sent = Obs.Counter.value t.data_bytes + Obs.Counter.value t.control_bytes;
    control_bytes_sent = Obs.Counter.value t.control_bytes;
  }
