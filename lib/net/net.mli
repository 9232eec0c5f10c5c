(** Runtime message transport over a {!Topology}, with statically
    reserved per-sender bandwidth.

    Faithful to the paper's §2.1 model: each sender owns a fixed slice
    of every link it sits on, enforced below the node (hardware MAC), so
    even a Byzantine "babbling idiot" can only saturate its own slice.
    Two traffic classes exist — [Data] for workload flows and [Control]
    for evidence/mode-change traffic — because §4.3 requires evidence
    distribution to run on reserved resources that bound its latency
    regardless of data load.

    Transmission of a [b]-byte message on a link takes
    [b / reserved_rate(link, class)] of queueing-free time;
    back-to-back sends queue behind one another (per sender, link and
    class), then the link's propagation latency applies. Multi-hop
    messages are store-and-forward relayed by the nodes their route
    names ({!Topology.hop}), each relay charging its own reservation;
    Byzantine relays can drop or delay them via the relay-policy hooks
    (fault injection uses this).

    Losses are assumed masked by FEC (§2.1); an optional residual-loss
    probability exercises that assumption's boundary. *)

open Btr_util

type node_id = Topology.node_id

type cls = Data | Control

type shares = { data_frac : float; control_frac : float }
(** Fraction of a link's raw bandwidth reserved to {e each member} per
    class. Must satisfy [members * (data + control) <= 1] for every
    link; {!create} checks this. *)

val shares_for : Topology.t -> shares option -> shares
(** The given shares, or the default every component falls back to:
    100% of a link split evenly among the members of the topology's
    most-populated link, 80/20 data/control. *)

val reservation_rate : shares -> Topology.link -> cls -> int
(** Bytes/second one member's static reservation provides on [link] for
    [cls] — the offline counterpart of {!reserved_rate}. *)

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

type 'a t

val create :
  Btr_sim.Engine.t ->
  Topology.t ->
  ?shares:shares ->
  ?residual_loss:float ->
  unit ->
  'a t
(** Raises [Invalid_argument] when a link's reservations exceed its
    capacity or a node or link id lies outside [0 .. 2^30 - 1]. *)

val topology : 'a t -> Topology.t

val set_handler : 'a t -> node_id -> ('a recv -> unit) -> unit
(** At most one handler per node; later calls replace earlier ones. *)

val send :
  'a t -> src:node_id -> dst:node_id -> cls:cls -> size_bytes:int -> 'a -> bool
(** Queues a message; [false] when no route exists (after
    {!set_route_avoid}) or when src = dst handler is absent. Delivery is
    asynchronous via the destination handler.

    A message in flight is a record from a per-network pool, recycled
    once the message is delivered, lost or dropped by a relay, so a
    warm send allocates only the {!recv} its handler is given. The
    handler may keep that [recv], and may send from inside itself. *)

val reserved_rate : 'a t -> Topology.link -> cls -> int
(** Bytes/second each member owns on that link for that class:
    {!reservation_rate} at the network's shares. *)

val link_transfer_time :
  shares -> cls:cls -> size_bytes:int -> Topology.link -> Time.t
(** One hop of a queueing-free transfer: serialization at the reserved
    rate plus the link's propagation latency. {!transfer_time} is
    its sum over a route. *)

val transfer_time :
  Topology.router ->
  shares ->
  cls:cls ->
  src:node_id ->
  dst:node_id ->
  size_bytes:int ->
  Time.t
(** Queueing-free end-to-end time of a message along the route the
    table holds: {!link_transfer_time} summed by {!Topology.path_cost}
    without building the route; [Time.infinity] when there is none.
    Applied to a table, shares and class, it returns one function that
    answers every query without allocating. The planner and the
    verifier bound every transfer with it, each over its own table for
    the mode. *)

(** {1 Fault-injection hooks} *)

val set_relay_policy :
  'a t -> node_id -> (src:node_id -> dst:node_id -> cls:cls -> bool) -> unit
(** Consulted when the node is asked to forward a transit message;
    returning [false] silently drops it (omission by a Byzantine relay). *)

val set_relay_delay : 'a t -> node_id -> Time.t -> unit
(** Extra delay a (Byzantine) relay adds to every message it forwards. *)

val set_route_avoid : 'a t -> node_id list -> unit
(** Nodes that routing must no longer relay through (known-faulty set
    after mode changes). Endpoints may still be faulty nodes. Routes
    come from one {!Topology.router} around this list and are cached per
    (src, dst); a list different from the current one replaces the
    router and flushes the cache. *)

(** {1 Statistics} *)

type stats = {
  messages_sent : int;
  messages_delivered : int;
  messages_lost : int;
  messages_dropped_by_relay : int;
  bytes_sent : int;  (** data + control *)
  control_bytes_sent : int;
}

val stats : 'a t -> stats
val bytes_sent_by : 'a t -> node_id -> cls -> int
