(** Static network topologies for the CPS system model (paper §2.1).

    A topology is a set of nodes and a set of links; each link is a
    shared medium (bus) connecting a subset of the nodes, with a finite
    bandwidth and a propagation latency. Bandwidth on each link is
    statically divided among the nodes attached to it — the paper's
    hardware-MAC answer to the babbling-idiot problem — so routing and
    reservations can be computed offline by the planner. *)

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
    is a declared node, every link has ≥ 2 members and positive
    bandwidth. Raises [Invalid_argument] otherwise. *)

val nodes : t -> node_id list
val links : t -> link list
val node_count : t -> int
val find_link : t -> int -> link
val links_of_node : t -> node_id -> link list
val neighbors : t -> node_id -> node_id list
val route : t -> src:node_id -> dst:node_id -> link list option
(** Minimum-hop path as the list of links to traverse; [Some []] when
    [src = dst]; [None] when disconnected. Deterministic tie-breaking
    (lowest link id first), so plans are stable across runs. *)

val route_avoiding : t -> avoid:node_id list -> src:node_id -> dst:node_id -> link list option
(** Like {!route} but refuses to relay through nodes in [avoid]
    (endpoints are exempt). Used once nodes are known to be faulty. *)

val next_hop_node : t -> here:node_id -> link:link -> dst:node_id -> node_id
(** The member of [link] that a message for [dst] should be handed to
    next when it is currently at [here]; [dst] itself if attached. *)

val connected_without : t -> node_id list -> bool
(** Are the remaining nodes still mutually reachable if the given nodes
    stop relaying? Endpoint connectivity for planner feasibility. *)

(** {1 Single-source sweeps}

    One BFS answers route queries from a fixed source to {e every}
    destination, with the exact routes {!route_avoiding} would return
    pair-by-pair (same expansion order, same tie-breaking). Every sweep,
    including the one behind each {!route} query, expands each link at
    most once, so it costs O(nodes + memberships) even on a bus that
    every node shares. These turn the verifier's all-pairs evidence
    bounds from O(n³) per fault set into O(n·memberships), which is
    what makes 10³–10⁴-node fleets checkable. *)

type paths
(** Shortest-path tree from one source under a [usable] predicate. *)

val paths_from : t -> usable:(node_id -> bool) -> src:node_id -> paths
(** BFS from [src] relaying only through nodes satisfying [usable].
    Unusable nodes are still reachable as endpoints (the {!route_avoiding}
    exemption) but never relay. *)

val reached : paths -> node_id -> bool
(** [reached p n] iff [path_to p ~dst:n] is [Some _]. *)

val path_to : paths -> dst:node_id -> link list option
(** The links of the route recorded in the sweep; equals
    [route_gen src dst] under the same [usable] predicate for every
    destination. [Some []] when [dst] is the source. *)

val router :
  t -> usable:(node_id -> bool) -> src:node_id -> dst:node_id -> link list option
(** [router t ~usable] answers [path_to] queries from any source,
    sweeping each source once, on first use, and keeping the sweep for
    later queries. *)

type costs
(** Route costs from one source. *)

val cost_from :
  t ->
  usable:(node_id -> bool) ->
  src:node_id ->
  link_cost:(link -> Btr_util.Time.t) ->
  costs
(** Same traversal as {!paths_from}, accumulating
    [sum of link_cost over the route] per destination during the sweep. *)

val cost_to : costs -> node_id -> Btr_util.Time.t option
(** [None] when unreachable; {!Btr_util.Time.zero} for the source. *)

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
