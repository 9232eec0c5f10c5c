(** Hierarchical timing wheel keyed on logical microseconds.

    The simulation engine's event queue ({!Btr_sim.Engine}): amortized
    O(1) insert and extract-min for the workloads a discrete-event
    simulator actually produces, where a comparison heap's O(log n)
    cost makes throughput collapse with queue depth.

    Geometry: two wheels of [wsize] slots each, level [L] slots
    spanning [wsize^L] µs, so the wheels cover [wsize^2] µs
    (~67 simulated seconds at 8192², far past a trial's ~1 s horizon)
    ahead of the cursor; anything further — including [Time.infinity] —
    parks in an unsorted overflow list that is rescanned when the
    cursor enters a new top-level block.
    A cell is placed at the lowest level whose current window contains
    its deadline (highest bit-block in which [at] and the cursor
    differ), and whole slots cascade down one level when the cursor
    enters their window, so every cell is relinked at most twice
    on its way to level 0.

    Order: level-0 slots span exactly 1 µs, and every placement path
    (direct insert, cascade, overflow rescan, cursor rewind) appends in
    FIFO order and runs before any later insert can target the same
    window — so cells with equal [at] pop in insertion order, and the
    engine's (time, insertion) total order holds without any stored
    sequence number.

    Cells are intrusive doubly-linked records recycled through a free
    list: cancelling unlinks in O(1) (no dead cells are ever walked at
    drain time) and a steady-state periodic workload reuses the same
    cells forever, allocating nothing per event.

    Not thread-safe; one wheel per engine, one engine per domain. *)

type 'a cell = {
  mutable c_at : int;  (** deadline, logical µs *)
  mutable c_payload : 'a;
  mutable c_prev : 'a cell;
  mutable c_next : 'a cell;
  mutable c_lvl : int;
      (** internal: wheel level, 2 for overflow, -1 when
          unlinked. Treat every field except [c_at] and [c_payload]
          as private to the wheel. *)
}
(** Exposed concretely so callers can build the nil cell: a [let rec]
    cell that links to itself needs the record constructor (see the
    engine's [nil_cell]). *)

type 'a t

val create : nil:'a cell -> unit -> 'a t
(** A wheel with its cursor at time 0. [nil] is the caller's detached
    sentinel cell: it terminates the free list, is returned by
    {!pop_at_most} on emptiness, and donates the payload used to blank
    recycled cells. Never linked into the wheel; share one per payload
    type. *)

val pool_ready : 'a t -> bool
(** [true] when the next {!add} will reuse a pooled cell rather than
    allocate. *)

val add : 'a t -> at:int -> 'a -> 'a cell
(** Links a cell for [at] (≥ 0). [at] may be behind the cursor (the
    cursor only ever advances through empty time, so this happens when
    a caller schedules into the gap left by a horizon-bounded pop);
    the wheel rewinds — O(wsize + level-0 cells), rare — and stays
    exact. The returned cell is valid until popped or unlinked. *)

val unlink : 'a t -> 'a cell -> bool
(** O(1) removal of a linked cell, returning it to the pool; [false]
    (and no effect) if the cell is not currently linked. This is the
    cancellation path: dead cells never linger to be walked at drain. *)

val pop_at_most : 'a t -> horizon:int -> 'a cell
(** The earliest cell with [c_at <= horizon] (first added among equal
    deadlines), unlinked but {e not} recycled — the caller reads its
    fields, then must hand it to {!recycle}. Returns the [nil] cell
    when no such cell exists; the cursor never advances past [horizon]
    (nor at all when the wheel is empty), so later adds behind it stay
    cheap. *)

val recycle : 'a t -> 'a cell -> unit
(** Returns a cell obtained from {!pop_at_most} to the free list,
    blanking its payload so the wheel retains no reference to it. *)
