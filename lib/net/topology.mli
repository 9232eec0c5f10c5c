(** Static network topologies for the CPS system model (paper §2.1).

    A topology is a set of nodes and a set of links; each link is a
    shared medium (bus) connecting a subset of the nodes, with a finite
    bandwidth and a propagation latency. Bandwidth on each link is
    statically divided among the nodes attached to it — the paper's
    hardware-MAC answer to the babbling-idiot problem — so routing and
    reservations can be computed offline by the planner. Routes come
    from one query, a {!router}, whose routes name the node each hop
    delivers to. *)

type node_id = int

type link = {
  link_id : int;
  members : node_id list;  (** nodes attached to this bus; ≥ 2, distinct *)
  bandwidth_bps : int;  (** raw medium capacity, bytes per second *)
  latency : Btr_util.Time.t;  (** propagation delay per hop *)
}

type t

val create : nodes:node_id list -> links:link list -> t
(** Validates: node ids distinct, link ids distinct, every link member
    is a declared node, every link has ≥ 2 members, positive bandwidth
    and non-negative latency. Raises [Invalid_argument] otherwise. *)

val nodes : t -> node_id list
val links : t -> link list
val node_count : t -> int
val find_link : t -> int -> link
val links_of_node : t -> node_id -> link list
val neighbors : t -> node_id -> node_id list
val connected_without : t -> node_id list -> bool
(** Are the remaining nodes still mutually reachable if the given nodes
    stop relaying? Endpoint connectivity for planner feasibility; one
    sweep, as {!router} runs it. *)

(** {1 Routes}

    A {!router} is the one route query. Each route is recorded by one
    breadth-first sweep from its source, which routes to {e every}
    destination at once: links in ascending id, members in declared
    order, first encounter wins, so routes are minimum-hop and stable
    across runs. A sweep expands each link at most once, so it costs
    O(nodes + memberships) even on a bus that every node shares. The
    sweep also records which member each hop delivers to, so a route
    names its relays: senders and the verifier charge each hop to the
    node the route hands it to, never to a second derivation. *)

type hop = {
  link : link;
  next : node_id;
      (** the member of [link] this hop delivers to: the next relay,
          or the destination on the last hop *)
}

type router
(** A route table under one [usable] predicate: the sweep from each
    source runs on its first query and is kept. Nodes failing [usable]
    are still reached as endpoints but never relay. The planner builds
    one per mode, and so do the verifier and the live network. *)

val router : t -> usable:(node_id -> bool) -> router

val path : router -> src:node_id -> dst:node_id -> hop list option
(** The minimum-hop route as the hops to traverse; [Some []] when
    [src = dst]; [None] when [dst] is unreachable or either end is not
    a node. *)

val path_cost :
  router ->
  link_cost:(link -> Btr_util.Time.t) ->
  src:node_id ->
  dst:node_id ->
  Btr_util.Time.t option
(** [link_cost] summed over the links of {!path}, folded back along the
    recorded predecessors without building the path: [Some Time.zero]
    when [src = dst], [None] when {!path} is. The sum is taken from the
    destination back, which {!Btr_util.Time.add} does not distinguish
    from the forward sum. *)

val pp : Format.formatter -> t -> unit

(** {1 Generators} *)

val fully_connected :
  n:int -> bandwidth_bps:int -> latency:Btr_util.Time.t -> t
(** One point-to-point link per node pair. *)

val ring : n:int -> bandwidth_bps:int -> latency:Btr_util.Time.t -> t

val star :
  n:int -> hub:node_id -> bandwidth_bps:int -> latency:Btr_util.Time.t -> t
(** [n] nodes, point-to-point spokes to [hub]. *)

val dual_bus :
  n:int -> bandwidth_bps:int -> latency:Btr_util.Time.t -> t
(** Two shared buses, every node on both — the classic avionics layout
    (e.g. ARINC/SAFEbus-style redundant buses). *)
