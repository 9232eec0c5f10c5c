open Btr_util

type model = {
  name : string;
  initial : float array;
  derivative : t:float -> state:float array -> input:float -> float array;
  output : float array -> float;
  in_envelope : float array -> bool;
  envelope_distance : float array -> float;
}

type t = {
  m : model;
  dt : Time.t;
  mutable clock : Time.t;
  mutable x : float array;
  mutable u : float;
  mutable outside : Time.t;
  mutable worst : float;
  mutable dead : bool;
}

let create m ~dt =
  if dt <= 0 then invalid_arg "Plant.create: dt <= 0";
  {
    m;
    dt;
    clock = Time.zero;
    x = Array.copy m.initial;
    u = 0.0;
    outside = Time.zero;
    worst = 0.0;
    dead = false;
  }

let state t = Array.copy t.x
let output t = t.m.output t.x
let set_input t u = t.u <- u
let input t = t.u

let axpy a x y = Array.mapi (fun i yi -> yi +. (a *. x.(i))) y

let rk4_step m ~t_s ~dt_s x u =
  let f t x = m.derivative ~t ~state:x ~input:u in
  let k1 = f t_s x in
  let k2 = f (t_s +. (dt_s /. 2.0)) (axpy (dt_s /. 2.0) k1 x) in
  let k3 = f (t_s +. (dt_s /. 2.0)) (axpy (dt_s /. 2.0) k2 x) in
  let k4 = f (t_s +. dt_s) (axpy dt_s k3 x) in
  Array.mapi
    (fun i xi ->
      xi +. (dt_s /. 6.0 *. (k1.(i) +. (2.0 *. k2.(i)) +. (2.0 *. k3.(i)) +. k4.(i))))
    x

let advance t ~until =
  while Time.compare t.clock until < 0 do
    let dt_s = Time.to_sec_f t.dt in
    t.x <- rk4_step t.m ~t_s:(Time.to_sec_f t.clock) ~dt_s t.x t.u;
    t.clock <- Time.add t.clock t.dt;
    let d = t.m.envelope_distance t.x in
    if d > t.worst then t.worst <- d;
    if not (t.m.in_envelope t.x) then begin
      t.outside <- Time.add t.outside t.dt;
      if d > 3.0 then t.dead <- true
    end
  done

let in_envelope t = t.m.in_envelope t.x
let time_outside_envelope t = t.outside
let max_excursion t = t.worst
let failed t = t.dead

(* Envelope distance is normalized: 1.0 at the envelope boundary. *)

let inverted_pendulum () =
  let g_over_l = 9.81 /. 1.0 and damping = 0.1 and limit = 0.35 in
  (* A small periodic disturbance torque (wind gusts) keeps the upright
     equilibrium from being numerically metastable: with control it is
     compensated invisibly; with control frozen, it seeds divergence. *)
  let disturbance t = 0.5 *. sin (2.0 *. Float.pi *. 0.8 *. t) in
  {
    name = "inverted-pendulum";
    initial = [| 0.05; 0.0 |];
    derivative =
      (fun ~t ~state ~input ->
        let theta = state.(0) and omega = state.(1) in
        [|
          omega;
          (g_over_l *. sin theta) -. (damping *. omega) +. input +. disturbance t;
        |]);
    output = (fun x -> x.(0));
    in_envelope = (fun x -> Float.abs x.(0) <= limit);
    envelope_distance = (fun x -> Float.abs x.(0) /. limit);
  }

let pressure_vessel ?(inflow = 0.4) () =
  let p_max = 10.0 and relief_rate = 1.2 in
  {
    name = "pressure-vessel";
    initial = [| 5.0 |];
    derivative =
      (fun ~t:_ ~state ~input ->
        let valve = Float.max 0.0 (Float.min 1.0 input) in
        let rate = inflow -. (relief_rate *. valve) in
        (* Pressure floors at ambient: venting an empty vessel does
           nothing. *)
        [| (if state.(0) <= 0.0 && rate < 0.0 then 0.0 else rate) |]);
    output = (fun x -> x.(0));
    in_envelope = (fun x -> x.(0) <= p_max && x.(0) >= 0.0);
    envelope_distance = (fun x -> Float.max (x.(0) /. p_max) 0.0);
  }

(* The set speed, m/s; the default controller holds it. *)
let v_set = 30.0

let cruise_control () =
  let mass = 1000.0 and drag = 50.0 and margin = 5.0 in
  {
    name = "cruise-control";
    initial = [| v_set |];
    derivative =
      (fun ~t:_ ~state ~input -> [| (input -. (drag *. state.(0))) /. mass |]);
    output = (fun x -> x.(0));
    in_envelope = (fun x -> Float.abs (x.(0) -. v_set) <= margin);
    envelope_distance = (fun x -> Float.abs (x.(0) -. v_set) /. margin);
  }

module Controller = struct
  type kind =
    | Pid of { kp : float; ki : float; kd : float; setpoint : float }
    | State_feedback of float array
    | Bang_bang of { threshold : float; low : float; high : float }

  type ctl = {
    kind : kind;
    mutable integral : float;
    mutable prev_error : float option;
  }

  let pid ~kp ~ki ~kd ~setpoint =
    { kind = Pid { kp; ki; kd; setpoint }; integral = 0.0; prev_error = None }

  (* u = −gains · state *)
  let state_feedback ~gains =
    { kind = State_feedback gains; integral = 0.0; prev_error = None }

  (* [high] when the measurement exceeds [threshold], else [low]. *)
  let bang_bang ~threshold ~low ~high =
    { kind = Bang_bang { threshold; low; high }; integral = 0.0; prev_error = None }

  let compute c ~dt_s ~measurement =
    match c.kind with
    | State_feedback gains ->
      let n = Stdlib.min (Array.length gains) (Array.length measurement) in
      let u = ref 0.0 in
      for i = 0 to n - 1 do
        u := !u -. (gains.(i) *. measurement.(i))
      done;
      !u
    | Bang_bang { threshold; low; high } ->
      if measurement.(0) > threshold then high else low
    | Pid { kp; ki; kd; setpoint } ->
      let e = setpoint -. measurement.(0) in
      c.integral <- c.integral +. (e *. dt_s);
      let de =
        match c.prev_error with
        | Some pe when dt_s > 0.0 -> (e -. pe) /. dt_s
        | _ -> 0.0
      in
      c.prev_error <- Some e;
      (kp *. e) +. (ki *. c.integral) +. (kd *. de)

  let default_for m =
    match m.name with
    | "inverted-pendulum" -> state_feedback ~gains:[| 25.0; 8.0 |]
    | "pressure-vessel" -> bang_bang ~threshold:6.0 ~low:0.0 ~high:1.0
    | "cruise-control" -> pid ~kp:400.0 ~ki:150.0 ~kd:0.0 ~setpoint:v_set
    | name -> invalid_arg ("Controller.default_for: unknown model " ^ name)
end
