(** Structured observability: typed events, metric registry, sinks.

    Every layer of the stack — engine, network, runtime, detector,
    evidence distributor, mode switcher, baselines — reports through one
    of these contexts instead of ad-hoc [Printf]/string traces, so the
    bounded-time claims of the paper (recovery within R, evidence
    flooded within its reserved-bandwidth bound, mode switches at period
    boundaries) can be audited from a single machine-readable stream.

    Two kinds of telemetry coexist:

    - {b events}: timestamped variant records tagged with a subsystem
      and (when meaningful) a node id, recorded only when a sink is
      attached ({!enabled}). With the default null sink the emit path
      is a single branch — no closures, no formatting, no allocation —
      so instrumented hot paths cost nothing when tracing is off. Call
      sites therefore guard construction:
      [if Obs.enabled obs then Obs.emit obs ~at ... (Msg_sent ...)].
    - {b counters/gauges}: always-on monotonic integers grouped in a
      per-context {!Registry}; incrementing is one field write.

    Sinks: [null] (drop), in-memory ring buffer (keeps the last
    [capacity] events, for tests and examples), and a JSONL writer
    (one JSON object per line, deterministic byte-for-byte given a
    deterministic simulation). *)

open Btr_util

type subsystem =
  | Sim
  | Net
  | Runtime
  | Detect
  | Evidence
  | Modeswitch
  | Fault
  | Baseline
  | Check  (** the static plan verifier ({!Btr_check}) *)
  | Campaign  (** the fault-injection campaign engine ({!Btr_campaign}) *)

val subsystem_name : subsystem -> string
(** Lowercase stable name, used in JSON output and metric names. *)

(** The event taxonomy. Payload fields are integers, strings and
    simulated times only, so JSONL output needs no float formatting and
    stays byte-deterministic. *)
type payload =
  | Run_started of { until : Time.t }
      (** the engine began draining its queue *)
  | Run_finished of { events : int }  (** queue drained or horizon hit *)
  | Msg_sent of { src : int; dst : int; cls : string; bytes : int }
  | Msg_delivered of {
      src : int;
      dst : int;
      cls : string;
      bytes : int;
      latency : Time.t;
      hops : int;
    }
  | Msg_lost of { src : int; dst : int; cls : string }
      (** residual (post-FEC) loss on a hop *)
  | Relay_dropped of { relay : int; src : int; dst : int; cls : string }
      (** a Byzantine relay refused to forward *)
  | Lane_exec of { task : int; period : int; role : string }
      (** a scheduled task slot ran on the emitting node *)
  | Checker_replay of { task : int; lane : int; period : int; ok : bool }
      (** a checker replayed a lane's computation (§4.2) *)
  | Watchdog_late of {
      flow : int;
      period : int;
      from_node : int;
      lateness : Time.t;
    }
  | Watchdog_missing of { flow : int; period : int; from_node : int }
      (** an expected message never arrived within deadline + margin *)
  | Watchdog_suspect of {
      flow : int;
      period : int;
      from_node : int;
      account : int;
    }
      (** a sender's strike account is above zero but below the
          declaration threshold — grounds for corroboration, not for a
          declaration on its own *)
  | Corroborated of { sender : int; watchers : int }
      (** [watchers] distinct watchers' sub-threshold suspicions of
          [sender] combined into omission-grade path evidence *)
  | Evidence_emitted of {
      accused : string;
      fault_class : string;
      period : int;
    }
  | Evidence_admitted of {
      verdict : string;
      detector : int;
      accused : string;
    }  (** a received record was validated: fresh/duplicate/invalid *)
  | Mode_staged of { faulty : int list }
      (** the node picked its next plan and began the transition *)
  | Mode_activated of { faulty : int list; latency : Time.t }
      (** the pending plan took effect; [latency] is measured from the
          evidence arrival that triggered staging (§4.4 switch time) *)
  | Fault_injected of { behavior : string }
  | Delivery of { flow : int; period : int; lane : int }
      (** a sink acted on a value (which replica lane won) *)
  | Shed of { flow : int; period : int }
      (** the mode intentionally does not produce this output *)
  | Verdict of { flow : int; period : int; status : string }
      (** per-period output judgment against the golden executor *)
  | Standby_activated of { task : int; period : int }
      (** ZZ-style reactive activation in a baseline *)
  | Audit_exposed of { node : int }
      (** a self-stabilization audit caught a faulty node *)
  | Check_diagnostic of { code : string; severity : string; detail : string }
      (** a static-verification finding (code like [BTR-E303]) *)
  | Campaign_started of { trials : int; configs : int }
      (** a fault-injection campaign compiled its trial list; [configs]
          is the parameter-grid size (worker count is deliberately not
          recorded: traces are identical for any [--jobs]) *)
  | Trial_verdict of { trial : int; verdict : string }
      (** one campaign trial finished: [pass]/[violation]/[rejected] *)
  | Violation_shrunk of { trial : int; events_before : int; events_after : int }
      (** the shrinker minimized a bound violation's fault schedule *)
  | Campaign_sharded of { shard : int; shards : int; trials : int }
      (** an orchestrated run selected its deterministic shard: [trials]
          of the full grid's trial list hash to shard [shard] of
          [shards] *)
  | Campaign_resumed of { skipped : int; remaining : int }
      (** a resumed run found [skipped] verdicts already recorded in the
          artifact and has [remaining] trials left to execute *)
  | Frontier_located of {
      slice : int;
      axis : string;
      boundary : int;  (** admit-side axis value, or -1 when the slice
                           has no admit/violate crossing in range *)
      probes : int;
    }  (** adaptive frontier search finished one config slice *)

type event = {
  at : Time.t;
  seq : int;  (** emission order, unique per context *)
  sub : subsystem;
  node : int;  (** emitting node, or -1 when not node-specific *)
  payload : payload;
}

(** {1 Counters and gauges} *)

module Counter : sig
  type t

  val name : t -> string
  val value : t -> int
  val incr : t -> unit
  val add : t -> int -> unit
end

module Gauge : sig
  type t

  val value : t -> int
  val set : t -> int -> unit
end

module Registry : sig
  type t

  val create : unit -> t

  val counter : t -> subsystem -> string -> Counter.t
  (** Get-or-create by qualified name [subsystem.name]. *)

  val gauge : t -> subsystem -> string -> Gauge.t

  val counters : t -> (string * int) list
  (** Sorted by qualified name. *)

  val to_json : t -> string
  (** [{"counters":{...},"gauges":{...}}], keys sorted. *)
end

(** {1 Contexts} *)

type t

val null : t
(** Shared always-disabled context: events dropped, registry live but
    shared by every user of [null] — prefer {!create} for anything whose
    counters you intend to read. *)

val create : unit -> t
(** Fresh context with a null sink and its own registry: counters work,
    events are dropped for free. The engine's default. *)

val with_memory : ?capacity:int -> unit -> t
(** Ring buffer keeping the last [capacity] (default 65536) events. *)

val with_jsonl : out_channel -> t
(** Streams each event as one JSON line; call {!flush} when done. The
    channel is not closed by this module. *)

val enabled : t -> bool
(** [true] iff a recording sink is attached. Guard event construction
    with this so the disabled path allocates nothing. *)

val emit : t -> at:Time.t -> ?node:int -> subsystem -> payload -> unit
(** Records an event (no-op when not {!enabled}). [node] defaults to -1
    (not node-specific). *)

val events : t -> event list
(** Memory sink contents, oldest first; [] for other sinks. *)

val registry : t -> Registry.t
val flush : t -> unit

(** {1 Encoding} *)

val event_to_json : event -> string
(** One-line JSON object: ["{\"t\":<us>,\"seq\":n,\"sub\":...,\"node\":n,\"ev\":...,<payload fields>}"].
    [node] is omitted when -1. *)

val metrics_json : t -> string
(** The context registry's {!Registry.to_json}. *)
