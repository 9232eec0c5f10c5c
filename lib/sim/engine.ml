open Btr_util
module Obs = Btr_obs.Obs

(* A queued event is one wheel cell whose payload is the callback
   itself: a one-shot event has no record of its own, and its cell
   comes from (and returns to) the wheel's pool, so scheduling one
   allocates nothing once the pool is warm. Only a periodic event has
   a handle: it carries the re-arm state and the armed cell, so that
   [cancel] can unlink the cell in O(1). *)
type t = {
  mutable clock : Time.t;
  wheel : (t -> unit) Twheel.t;
  mutable processed : int;
  mutable live : int;
  rng : Rng.t;
  obs : Obs.t;
  c_scheduled : Obs.Counter.t;
  c_fired : Obs.Counter.t;
  c_cancelled : Obs.Counter.t;
  c_pool : Obs.Counter.t;
  c_cells : Obs.Counter.t;
}

type handle = {
  eng : t;
  mutable alive : bool;
  mutable armed : bool; (* [cell] is linked: false while the callback runs *)
  mutable cell : (t -> unit) Twheel.cell;
}

let nop (_ : t) = ()

(* The wheel's detached sentinel. Shared by every engine: the wheel
   never writes its nil, so this is safe across campaign domains. *)
let rec nil_cell : (t -> unit) Twheel.cell =
  { Twheel.c_at = 0; c_payload = nop; c_prev = nil_cell; c_next = nil_cell; c_lvl = -1 }

let create ?(seed = 1) ?obs () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let counter name = Obs.Registry.counter (Obs.registry obs) Obs.Sim name in
  {
    clock = Time.zero;
    wheel = Twheel.create ~nil:nil_cell ();
    processed = 0;
    live = 0;
    rng = Rng.create seed;
    obs;
    c_scheduled = counter "engine.scheduled";
    c_fired = counter "engine.fired";
    c_cancelled = counter "engine.cancelled";
    c_pool = counter "engine.pool-reuse";
    c_cells = counter "engine.cells";
  }

let now t = t.clock
let rng t = t.rng
let obs t = t.obs

let push t ~at f =
  if Twheel.pool_ready t.wheel then Obs.Counter.incr t.c_pool
  else Obs.Counter.incr t.c_cells;
  t.live <- t.live + 1;
  Obs.Counter.incr t.c_scheduled;
  Twheel.add t.wheel ~at f

let schedule t ~at f =
  if Time.compare at t.clock < 0 then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%s is before now=%s"
         (Time.to_string at) (Time.to_string t.clock));
  ignore (push t ~at f : (t -> unit) Twheel.cell)

let schedule_in t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_in: negative delay";
  schedule t ~at:(Time.add t.clock delay) f

let every t ~period ?start f =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let start =
    match start with Some s -> s | None -> Time.add t.clock period
  in
  let h = { eng = t; alive = true; armed = true; cell = nil_cell } in
  (* One handle guards every firing, so cancelling it also voids the
     firing already sitting in the queue. The re-arm comes one period
     after this firing, once [f] has returned, so events [f] scheduled
     for the same instant fire first; a handle cancelled from inside
     [f] stays unarmed. Re-arming reuses the cell this firing just
     recycled, so a steady periodic load allocates nothing. A pointer
     store into a promoted record pays the write barrier, so [armed],
     an int, marks the handle disarmed while [f] runs, and [h.cell] is
     stored only when the re-arm took a different cell. *)
  let rec tick t =
    let at = t.clock in
    h.armed <- false;
    f t;
    if h.alive then begin
      let c = push t ~at:(Time.add at period) tick in
      if c != h.cell then h.cell <- c;
      h.armed <- true
    end
  in
  h.cell <- push t ~at:start tick;
  h

let cancel h =
  if h.alive then begin
    h.alive <- false;
    if h.armed then begin
      let t = h.eng in
      h.armed <- false;
      t.live <- t.live - 1;
      Obs.Counter.incr t.c_cancelled;
      ignore (Twheel.unlink t.wheel h.cell : bool)
    end
  end

(* Cancel unlinks cells eagerly, so a popped cell is always live. The
   cell is recycled as soon as its fields are read: a callback that
   schedules, or a periodic re-arm, then reuses this very cell. *)
let fire_cell t (c : (t -> unit) Twheel.cell) =
  let f = c.Twheel.c_payload in
  t.clock <- c.Twheel.c_at;
  Twheel.recycle t.wheel c;
  t.live <- t.live - 1;
  t.processed <- t.processed + 1;
  Obs.Counter.incr t.c_fired;
  f t

(* Fire the next event at or before [horizon]. *)
let step_until t ~horizon =
  let c = Twheel.pop_at_most t.wheel ~horizon in
  if c == nil_cell then false
  else begin
    fire_cell t c;
    true
  end

let step t = step_until t ~horizon:Time.infinity

let run ?(until = Time.infinity) t =
  if Obs.enabled t.obs then
    Obs.emit t.obs ~at:t.clock Obs.Sim (Obs.Run_started { until });
  while step_until t ~horizon:until do
    ()
  done;
  if Obs.enabled t.obs then
    Obs.emit t.obs ~at:t.clock Obs.Sim
      (Obs.Run_finished { events = t.processed })

let events_processed t = t.processed
let pending t = t.live
