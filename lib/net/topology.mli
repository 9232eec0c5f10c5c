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

val index : t -> node_id -> int
(** The node's position in {!nodes}, or -1 when it is not a node: O(1),
    without hashing when the id is its own position (as generators
    number nodes). *)

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

type sweeps
(** The topology's fault-free sweeps, one per source, each run on its
    first use and kept. A sweep that avoids a set of nodes equals the
    fault-free one whenever no node of the set relays in it (the source
    itself always expands), so every {!router} built on one [sweeps]
    reuses those and sweeps again only the sources whose fault-free
    sweep a node it avoids relays in. The planner builds one per
    strategy and the verifier one per pass; the live network keeps one
    for its lifetime. *)

val sweeps : t -> sweeps
val sweeps_topology : sweeps -> t

type router
(** A route table that avoids a set of nodes: they are still reached
    as endpoints but never relay. The sweep from each source is found
    on its first query and kept. The planner builds one per mode, and
    so do the verifier and the live network. *)

val router : sweeps -> avoid:node_id list -> router
(** Ids in [avoid] that are not nodes are ignored. *)

val path : router -> src:node_id -> dst:node_id -> hop list option
(** The minimum-hop route as the hops to traverse; [Some []] when
    [src = dst]; [None] when [dst] is unreachable or either end is not
    a node. *)

val path_cost :
  router ->
  link_cost:(link -> Btr_util.Time.t) ->
  src:node_id ->
  dst:node_id ->
  Btr_util.Time.t
(** [link_cost] summed over the links of {!path}, folded back along the
    recorded predecessors without building the path or allocating:
    [Time.zero] when [src = dst], [Time.infinity] when {!path} is
    [None]. The sum is taken from the destination back, which
    {!Btr_util.Time.add} does not distinguish from the forward sum. *)

val connected : router -> bool
(** Does every node the router does not avoid reach every other? One
    sweep, from the first of them in declared order. *)

type spread
(** Every source's [k] costliest destinations under one link cost, read
    off its fault-free sweep. *)

val spread : sweeps -> link_cost:(link -> Btr_util.Time.t) -> k:int -> spread
(** Runs every fault-free sweep of [sweeps]: O(n · (nodes +
    memberships)) once. Raises [Invalid_argument] when [k < 1]. *)

val max_path_cost : spread -> avoid:node_id list -> Btr_util.Time.t
(** The largest {!path_cost} between two nodes outside [avoid], over
    [router sweeps ~avoid]; unreachable pairs are skipped, and
    [Time.zero] when there are none. A source whose fault-free sweep
    [avoid] does not relay in reads its answer off its list when
    [avoid] holds fewer than [k] nodes (or it lists every reachable
    node), so the query costs O(n · (|avoid| + k)) plus a sweep per
    other source. It allocates only an array of [avoid]'s indices. *)

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
