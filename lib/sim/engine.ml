open Btr_util
module Obs = Btr_obs.Obs

(* A handle carries the shared per-engine [counters] record rather than
   the engine itself: [cancel] takes only a handle, and the static nil
   values below must stay constructible, so [counters.env] smuggles in
   the two things cancellation needs from the engine — the wheel (for
   the O(1) unlink) and the obs counter — behind a constant
   constructor. *)
type handle = {
  mutable alive : bool;
  mutable fire : t -> unit;
      (* the user's callback, stored directly — no wrapper closure, so
         firing reads one fewer cache line and scheduling allocates
         only the handle *)
  mutable period : int;
      (* -1 one-shot; else the engine re-arms every [period] µs. Native
         rather than closed over: the re-arm state rides the handle
         record the firing path has already loaded. *)
  mutable cell : handle Twheel.cell;
      (* the armed wheel cell; [nil_cell] when nothing is queued *)
  ctrs : counters;
}

and counters = { mutable live : int; env : env }

and env =
  | Nil_env
  | Env of { wheel : handle Twheel.t; c_cancelled : Obs.Counter.t }

and t = {
  mutable clock : Time.t;
  wheel : handle Twheel.t;
  mutable processed : int;
  ectrs : counters;
  rng : Rng.t;
  obs : Obs.t;
  c_scheduled : Obs.Counter.t;
  c_fired : Obs.Counter.t;
  c_pool : Obs.Counter.t;
  c_cells : Obs.Counter.t;
}

let nop _ = ()

(* The knot the wheel's intrusive cells require: a detached sentinel
   cell whose payload is a dead handle whose cell is the sentinel.
   Shared by every engine — the wheel never mutates its nil, so this is
   safe across campaign domains. *)
let rec nil_handle =
  {
    alive = false;
    fire = nop;
    period = -1;
    cell = nil_cell;
    ctrs = { live = 0; env = Nil_env };
  }

and nil_cell =
  {
    Twheel.c_at = 0;
    c_payload = nil_handle;
    c_prev = nil_cell;
    c_next = nil_cell;
    c_lvl = -1;
  }

let create ?(seed = 1) ?obs () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let counter name = Obs.Registry.counter (Obs.registry obs) Obs.Sim name in
  let c_cancelled = counter "engine.cancelled" in
  let wheel = Twheel.create ~nil:nil_cell () in
  {
    clock = Time.zero;
    wheel;
    processed = 0;
    ectrs = { live = 0; env = Env { wheel; c_cancelled } };
    rng = Rng.create seed;
    obs;
    c_scheduled = counter "engine.scheduled";
    c_fired = counter "engine.fired";
    c_pool = counter "engine.pool-reuse";
    c_cells = counter "engine.cells";
  }

let now t = t.clock
let rng t = t.rng
let obs t = t.obs

let new_handle t =
  {
    alive = true;
    fire = nop;
    period = -1;
    cell = nil_cell;
    ctrs = t.ectrs;
  }

let push t ~at h =
  if Twheel.pool_ready t.wheel then Obs.Counter.incr t.c_pool
  else Obs.Counter.incr t.c_cells;
  h.cell <- Twheel.add t.wheel ~at h;
  t.ectrs.live <- t.ectrs.live + 1;
  Obs.Counter.incr t.c_scheduled

let schedule t ~at f =
  if Time.compare at t.clock < 0 then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%s is before now=%s"
         (Time.to_string at) (Time.to_string t.clock));
  let h = new_handle t in
  h.fire <- f;
  push t ~at h;
  h

let schedule_in t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_in: negative delay";
  schedule t ~at:(Time.add t.clock delay) f

let every t ~period ?start f =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let start =
    match start with Some s -> s | None -> Time.add t.clock period
  in
  (* One handle guards every firing, so cancelling it also voids the
     firing already sitting in the queue. Re-arming is native (see
     [rearm]): it allocates nothing — the freshly recycled cell is
     reused — and touches no state off the handle record. *)
  let h = new_handle t in
  h.fire <- f;
  h.period <- period;
  push t ~at:start h;
  h

let cancel h =
  if h.alive then begin
    h.alive <- false;
    if h.cell != nil_cell then
      match h.ctrs.env with
      | Nil_env -> ()
      | Env e ->
        h.ctrs.live <- h.ctrs.live - 1;
        Obs.Counter.incr e.c_cancelled;
        ignore (Twheel.unlink e.wheel h.cell : bool);
        h.cell <- nil_cell
  end

(* Periodic re-arm one period after the firing at [at], once the
   callback has returned, so events the callback scheduled for the same
   instant fire first. A handle cancelled from inside its own callback
   stays unarmed. *)
let rearm t h at =
  if h.period >= 0 && h.alive then push t ~at:(Time.add at h.period) h

(* Cancel unlinks cells eagerly, so a popped cell is always live.
   Recycle before firing: a re-arm inside [h.fire] then reuses this
   very cell. *)
let fire_cell t (c : handle Twheel.cell) =
  let h = c.Twheel.c_payload in
  let at = c.Twheel.c_at in
  h.cell <- nil_cell;
  Twheel.recycle t.wheel c;
  t.clock <- at;
  t.ectrs.live <- t.ectrs.live - 1;
  t.processed <- t.processed + 1;
  Obs.Counter.incr t.c_fired;
  h.fire t;
  rearm t h at

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
  let rec loop () = if step_until t ~horizon:until then loop () in
  loop ();
  if Obs.enabled t.obs then
    Obs.emit t.obs ~at:t.clock Obs.Sim
      (Obs.Run_finished { events = t.processed })

let events_processed t = t.processed
let pending t = t.ectrs.live
