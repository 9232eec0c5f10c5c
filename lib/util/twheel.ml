(* Hierarchical timing wheel. See twheel.mli for the design contract;
   the invariants the code below leans on:

   I1 (placement): a linked cell sits at the lowest level whose current
      cursor window contains its deadline — level of the highest
      [wbits]-block in which [c_at] and [cur] differ — except
      transiently after a rewind, where a cell may sit *below* its true
      level; such cells are repaired upward the next time their slot
      cascades, and are never popped early because level-0 re-placement
      is exact.
   I2 (level 0): every level-0 cell has c_at >= cur and lives in the
      current [wsize]-µs window, so slot (c_at land wmask) holds exactly
      one timestamp and the cell at the cursor's own slot has c_at = cur.
   I3 (order): within a slot, cells appear in insertion order; every
      bulk move (cascade, overflow rescan, rewind) preserves relative
      order and completes before any later direct insert can target the
      same window, so equal-deadline cells pop in insertion order.
   I4 (counts): counts.(l) is the number of cells linked at level l
      (overflow at index [levels]); total is their sum. The cursor may
      only skip a time range after proving, via these counts, that no
      boundary inside it can release a cell.
   I5 (ov_min): a lower bound on the minimum deadline in the overflow
      list (exact after each rescan; unlinks may leave it low, never
      high), so jumping straight to ov_min's top-level block skips no
      occupied block.
   I6 (bitmap): bit [slot] of l0_bits is set iff level-0 slot [slot] is
      non-empty, so the cursor finds the next occupied level-0 slot by
      word-sized bit scans instead of walking sentinels across empty
      time. *)

type 'a cell = {
  mutable c_at : int;
  mutable c_payload : 'a;
  mutable c_prev : 'a cell;
  mutable c_next : 'a cell;
  mutable c_lvl : int;
}

(* Wide, shallow geometry: 8192-slot levels keep millisecond-scale
   re-arms (the simulator's dominant pattern) inside the level-0 window
   ~88% of the time, so the typical cell is linked once and popped once
   with no cascade touch in between. Slot sentinels are allocated
   lazily, so the wide levels cost one pointer array per wheel, not
   16k live records. *)
let wbits = 13
let wsize = 1 lsl wbits
let wmask = wsize - 1
let levels = 2
let span_bits = wbits * levels (* 26: horizon of the wheels proper *)
let span_mask = (1 lsl span_bits) - 1

(* I6: 32 occupancy bits per word (not 63 — keeps the slot/word split a
   pair of shifts well inside OCaml's 63-bit int). *)
let l0_words = wsize lsr 5

type 'a t = {
  nil : 'a cell;
  slots : 'a cell array; (* levels*wsize sentinels, then the overflow *)
  counts : int array; (* per level; overflow at index [levels] *)
  l0_bits : int array; (* I6: level-0 occupancy, 32 slots per word *)
  mutable cur : int;
  mutable total : int;
  mutable ov_min : int; (* I5; max_int when overflow is empty *)
  mutable free : 'a cell; (* pool: singly linked through c_next *)
}

let sentinel nil =
  let s =
    {
      c_at = max_int;
      c_payload = nil.c_payload;
      c_prev = nil;
      c_next = nil;
      c_lvl = -1;
    }
  in
  s.c_prev <- s;
  s.c_next <- s;
  s

let create ~nil () =
  {
    nil;
    (* [nil] stands in for a never-used slot: nil.c_next == nil, so
       every emptiness test below reads it as an empty slot. A real
       sentinel replaces it on first link. *)
    slots = Array.make ((levels * wsize) + 1) nil;
    counts = Array.make (levels + 1) 0;
    l0_bits = Array.make l0_words 0;
    cur = 0;
    total = 0;
    ov_min = max_int;
    free = nil;
  }

let pool_ready t = t.free != t.nil

(* Append [c] before sentinel [s] (slot tail), preserving FIFO order. *)
let append s c =
  let tail = s.c_prev in
  c.c_prev <- tail;
  c.c_next <- s;
  tail.c_next <- c;
  s.c_prev <- c

(* Place a detached cell by I1 and account for it (I4, I5). *)
let link t c =
  let x = c.c_at lxor t.cur in
  let lvl =
    if x < wsize then 0 else if x <= span_mask then 1 else levels
  in
  let idx =
    if lvl = levels then levels * wsize
    else (lvl * wsize) + ((c.c_at lsr (lvl * wbits)) land wmask)
  in
  let s = t.slots.(idx) in
  let s =
    if s != t.nil then s
    else begin
      let s = sentinel t.nil in
      t.slots.(idx) <- s;
      s
    end
  in
  if lvl = 0 && s.c_next == s then
    t.l0_bits.(idx lsr 5) <- t.l0_bits.(idx lsr 5) lor (1 lsl (idx land 31));
  append s c;
  c.c_lvl <- lvl;
  t.counts.(lvl) <- t.counts.(lvl) + 1;
  t.total <- t.total + 1;
  if lvl = levels && c.c_at < t.ov_min then t.ov_min <- c.c_at

(* Detach a linked cell without touching the pool. *)
let splice_out t c =
  (* prev == next iff [c] was the slot's only cell (both the sentinel):
     clear its occupancy bit (I6; the slot index is exact by I2) *)
  if c.c_lvl = 0 && c.c_prev == c.c_next then begin
    let slot = c.c_at land wmask in
    t.l0_bits.(slot lsr 5)
    <- t.l0_bits.(slot lsr 5) land lnot (1 lsl (slot land 31))
  end;
  c.c_prev.c_next <- c.c_next;
  c.c_next.c_prev <- c.c_prev;
  t.counts.(c.c_lvl) <- t.counts.(c.c_lvl) - 1;
  t.total <- t.total - 1;
  c.c_lvl <- -1

(* A pooled cell keeps a stale [c_prev]: nothing reads it before
   [append] sets it, and skipping the store spares a write barrier. *)
let to_pool t c =
  c.c_payload <- t.nil.c_payload;
  c.c_next <- t.free;
  t.free <- c

let recycle t c = to_pool t c

let unlink t c =
  if c.c_lvl < 0 then false
  else begin
    splice_out t c;
    to_pool t c;
    true
  end

let take t ~at payload =
  if t.free != t.nil then begin
    let c = t.free in
    t.free <- c.c_next;
    c.c_at <- at;
    c.c_payload <- payload;
    c
  end
  else begin
    {
      c_at = at;
      c_payload = payload;
      c_prev = t.nil;
      c_next = t.nil;
      c_lvl = -1;
    }
  end

(* Take a level-0 slot's cells from the tail so consing preserves
   per-slot FIFO (I3). *)
let rec grab t s acc =
  let c = s.c_prev in
  if c == s then acc
  else begin
    splice_out t c;
    grab t s (c :: acc)
  end

(* An insert landed behind the cursor: move the cursor back to [at].
   Only level-0 cells can be popped without a boundary crossing, so
   only they must be re-placed exactly; higher-level cells may now sit
   below their true level, which I1 tolerates (cascade repairs them
   upward before the cursor can reach their window). Two phases —
   collect everything, then relink under the new cursor — so a
   re-placed cell can't land in a level-0 slot we haven't emptied yet
   and be walked twice. *)
let rewind t at =
  let moved = ref [] in
  for i = wsize - 1 downto 0 do
    moved := grab t t.slots.(i) !moved
  done;
  t.cur <- at;
  List.iter (fun c -> link t c) !moved

let add t ~at payload =
  if at < 0 then invalid_arg "Twheel.add: negative deadline";
  if at < t.cur then rewind t at;
  let c = take t ~at payload in
  link t c;
  c

(* Smallest multiple of 2^k strictly above [cur]; max_int on overflow
   (nothing real lives that far out: deadlines are non-negative ints). *)
let next_boundary cur k =
  let b = ((cur lsr k) + 1) lsl k in
  if b <= cur then max_int else b

(* Re-place every cell in level [lvl]'s slot for the current cursor.
   Entering the window strictly shrinks c_at lxor cur for in-window
   cells, so each re-link lands strictly below [lvl]; stale
   (post-rewind) cells may re-link upward instead. Either way never
   into the same slot, so the head-walk terminates. *)
let rec cascade_slot t s =
  let c = s.c_next in
  if c != s then begin
    splice_out t c;
    link t c;
    cascade_slot t s
  end

let cascade t lvl =
  cascade_slot t t.slots.((lvl * wsize) + ((t.cur lsr (lvl * wbits)) land wmask))

(* The cursor entered a new top-level block: pull every overflow cell
   now within the wheels' span down into them, and recompute ov_min
   exactly from what remains (I5); [m] is the least deadline left so
   far. *)
let rec rescan t s c m =
  if c == s then m
  else begin
    let nxt = c.c_next in
    if c.c_at lxor t.cur <= span_mask then begin
      splice_out t c;
      link t c;
      rescan t s nxt m
    end
    else rescan t s nxt (if c.c_at < m then c.c_at else m)
  end

let rescan_overflow t =
  let s = t.slots.(levels * wsize) in
  t.ov_min <- rescan t s s.c_next max_int

(* Index of the lowest set bit of [b] <> 0, counting from [k]. *)
let rec ctz b k = if b land 1 = 1 then k else ctz (b lsr 1) (k + 1)

(* The first occupied level-0 slot at or after bitmap word [w], as a
   time in the window starting at [base]; the next window's start when
   there is none. *)
let rec first_occupied t base w =
  if w >= l0_words then next_boundary base wbits
  else if t.l0_bits.(w) <> 0 then base lor ((w lsl 5) + ctz t.l0_bits.(w) 0)
  else first_occupied t base (w + 1)

(* One cursor hop toward the next cell, never past [horizon].
   Preconditions: total > 0, cur < horizon, current level-0 slot empty.
   Jump distance is justified by I4/I5: with level < l all empty, no
   boundary below the next 2^(wbits*l) multiple can release a cell. *)
let advance t horizon =
  let cur = t.cur in
  let target =
    if t.counts.(0) > 0 then begin
      (* I2: some level-0 cell sits at a strictly later slot of this
         window (the cursor's own slot is empty); find it by bitmap
         scan (I6). *)
      let base = cur land lnot wmask in
      let i = (cur land wmask) + 1 in
      if i >= wsize then next_boundary cur wbits
      else begin
        let first = t.l0_bits.(i lsr 5) lsr (i land 31) in
        if first <> 0 then base lor (i + ctz first 0)
        else first_occupied t base ((i lsr 5) + 1)
      end
    end
    else if t.counts.(1) > 0 then next_boundary cur wbits
    else begin
      (* Only the overflow is populated: jump to its first block. If
         ov_min went stale-low (I5), step one block and rescan. *)
      (* parenthesized: lsl/lsr associate to the right *)
      let b = (t.ov_min lsr span_bits) lsl span_bits in
      if b <= cur then next_boundary cur span_bits else b
    end
  in
  let target = if target > horizon then horizon else target in
  t.cur <- target;
  (* Process boundary crossings at the landing point, widest first, so
     overflow cells cascade through L1 within this same hop. A
     horizon-clamped target skips no occupied boundary: the unclamped
     target was the nearest boundary of the lowest occupied level. *)
  if target land span_mask = 0 then rescan_overflow t;
  if target land wmask = 0 then cascade t 1

let rec pop_at_most t ~horizon =
  if t.total = 0 then t.nil
  else begin
    let s = t.slots.(t.cur land wmask) in
    let c = s.c_next in
    if c != s then
      if t.cur <= horizon then begin
        splice_out t c;
        c
      end
      else t.nil
    else if t.cur >= horizon then t.nil
    else begin
      advance t horizon;
      pop_at_most t ~horizon
    end
  end
