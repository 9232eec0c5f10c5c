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
  | Check
  | Campaign

let subsystem_name = function
  | Sim -> "sim"
  | Net -> "net"
  | Runtime -> "runtime"
  | Detect -> "detect"
  | Evidence -> "evidence"
  | Modeswitch -> "modeswitch"
  | Fault -> "fault"
  | Baseline -> "baseline"
  | Check -> "check"
  | Campaign -> "campaign"

type payload =
  | Run_started of { until : Time.t }
  | Run_finished of { events : int }
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
  | Relay_dropped of { relay : int; src : int; dst : int; cls : string }
  | Lane_exec of { task : int; period : int; role : string }
  | Checker_replay of { task : int; lane : int; period : int; ok : bool }
  | Watchdog_late of {
      flow : int;
      period : int;
      from_node : int;
      lateness : Time.t;
    }
  | Watchdog_missing of { flow : int; period : int; from_node : int }
  | Watchdog_suspect of {
      flow : int;
      period : int;
      from_node : int;
      account : int;
    }
  | Corroborated of { sender : int; watchers : int }
  | Evidence_emitted of {
      accused : string;
      fault_class : string;
      period : int;
    }
  | Evidence_admitted of {
      verdict : string;
      detector : int;
      accused : string;
    }
  | Mode_staged of { faulty : int list }
  | Mode_activated of { faulty : int list; latency : Time.t }
  | Fault_injected of { behavior : string }
  | Delivery of { flow : int; period : int; lane : int }
  | Shed of { flow : int; period : int }
  | Verdict of { flow : int; period : int; status : string }
  | Standby_activated of { task : int; period : int }
  | Audit_exposed of { node : int }
  | Check_diagnostic of { code : string; severity : string; detail : string }
  | Campaign_started of { trials : int; configs : int }
  | Trial_verdict of { trial : int; verdict : string }
  | Violation_shrunk of { trial : int; events_before : int; events_after : int }
  | Campaign_sharded of { shard : int; shards : int; trials : int }
  | Campaign_resumed of { skipped : int; remaining : int }
  | Frontier_located of {
      slice : int;
      axis : string;
      boundary : int;
      probes : int;
    }

type event = {
  at : Time.t;
  seq : int;
  sub : subsystem;
  node : int;
  payload : payload;
}

(* ------------------------------------------------------------------ *)
(* Counters, gauges, registry                                           *)

module Counter = struct
  type t = { name : string; mutable value : int }

  let name c = c.name
  let value c = c.value
  let incr c = c.value <- c.value + 1
  let add c n = c.value <- c.value + n
end

module Gauge = struct
  type t = { mutable value : int }

  let value g = g.value
  let set g v = g.value <- v
end

module Registry = struct
  type t = {
    counters : (string, Counter.t) Hashtbl.t;
    gauges : (string, Gauge.t) Hashtbl.t;
  }

  let create () = { counters = Hashtbl.create 32; gauges = Hashtbl.create 8 }

  let qualified sub name = subsystem_name sub ^ "." ^ name

  let counter t sub name =
    let q = qualified sub name in
    match Hashtbl.find_opt t.counters q with
    | Some c -> c
    | None ->
      let c = { Counter.name = q; value = 0 } in
      Hashtbl.replace t.counters q c;
      c

  let gauge t sub name =
    let q = qualified sub name in
    match Hashtbl.find_opt t.gauges q with
    | Some g -> g
    | None ->
      let g = { Gauge.value = 0 } in
      Hashtbl.replace t.gauges q g;
      g

  let counters t =
    Table.sorted_fold ~cmp:String.compare
      (fun k c acc -> (k, c.Counter.value) :: acc)
      t.counters []
    |> List.rev

  let gauges t =
    Table.sorted_fold ~cmp:String.compare
      (fun k g acc -> (k, g.Gauge.value) :: acc)
      t.gauges []
    |> List.rev

  let to_json t =
    let b = Buffer.create 256 in
    let obj pairs =
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Flat_json.escape b k;
          Buffer.add_string b "\":";
          Buffer.add_string b (string_of_int v))
        pairs;
      Buffer.add_char b '}'
    in
    Buffer.add_string b "{\"counters\":";
    obj (counters t);
    Buffer.add_string b ",\"gauges\":";
    obj (gauges t);
    Buffer.add_char b '}';
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* JSON event encoding                                                  *)

let payload_tag = function
  | Run_started _ -> "run-started"
  | Run_finished _ -> "run-finished"
  | Msg_sent _ -> "msg-sent"
  | Msg_delivered _ -> "msg-delivered"
  | Msg_lost _ -> "msg-lost"
  | Relay_dropped _ -> "relay-dropped"
  | Lane_exec _ -> "lane-exec"
  | Checker_replay _ -> "checker-replay"
  | Watchdog_late _ -> "watchdog-late"
  | Watchdog_missing _ -> "watchdog-missing"
  | Watchdog_suspect _ -> "watchdog-suspect"
  | Corroborated _ -> "corroborated"
  | Evidence_emitted _ -> "evidence-emitted"
  | Evidence_admitted _ -> "evidence-admitted"
  | Mode_staged _ -> "mode-staged"
  | Mode_activated _ -> "mode-activated"
  | Fault_injected _ -> "fault-injected"
  | Delivery _ -> "delivery"
  | Shed _ -> "shed"
  | Verdict _ -> "verdict"
  | Standby_activated _ -> "standby-activated"
  | Audit_exposed _ -> "audit-exposed"
  | Check_diagnostic _ -> "check-diagnostic"
  | Campaign_started _ -> "campaign-started"
  | Trial_verdict _ -> "trial-verdict"
  | Violation_shrunk _ -> "violation-shrunk"
  | Campaign_sharded _ -> "campaign-sharded"
  | Campaign_resumed _ -> "campaign-resumed"
  | Frontier_located _ -> "frontier-located"

let add_int b key v =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b "\":";
  Buffer.add_string b (string_of_int v)

let add_str b key v =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b "\":\"";
  Flat_json.escape b v;
  Buffer.add_char b '"'

let add_bool b key v =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b (if v then "\":true" else "\":false")

let add_int_list b key vs =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b "\":[";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v))
    vs;
  Buffer.add_char b ']'

let add_payload b = function
  | Run_started { until } ->
    if until = Time.infinity then add_int b "until" (-1)
    else add_int b "until" until
  | Run_finished { events } -> add_int b "events" events
  | Msg_sent { src; dst; cls; bytes } ->
    add_int b "src" src;
    add_int b "dst" dst;
    add_str b "cls" cls;
    add_int b "bytes" bytes
  | Msg_delivered { src; dst; cls; bytes; latency; hops } ->
    add_int b "src" src;
    add_int b "dst" dst;
    add_str b "cls" cls;
    add_int b "bytes" bytes;
    add_int b "latency" latency;
    add_int b "hops" hops
  | Msg_lost { src; dst; cls } ->
    add_int b "src" src;
    add_int b "dst" dst;
    add_str b "cls" cls
  | Relay_dropped { relay; src; dst; cls } ->
    add_int b "relay" relay;
    add_int b "src" src;
    add_int b "dst" dst;
    add_str b "cls" cls
  | Lane_exec { task; period; role } ->
    add_int b "task" task;
    add_int b "period" period;
    add_str b "role" role
  | Checker_replay { task; lane; period; ok } ->
    add_int b "task" task;
    add_int b "lane" lane;
    add_int b "period" period;
    add_bool b "ok" ok
  | Watchdog_late { flow; period; from_node; lateness } ->
    add_int b "flow" flow;
    add_int b "period" period;
    add_int b "from" from_node;
    add_int b "lateness" lateness
  | Watchdog_missing { flow; period; from_node } ->
    add_int b "flow" flow;
    add_int b "period" period;
    add_int b "from" from_node
  | Watchdog_suspect { flow; period; from_node; account } ->
    add_int b "flow" flow;
    add_int b "period" period;
    add_int b "from" from_node;
    add_int b "account" account
  | Corroborated { sender; watchers } ->
    add_int b "sender" sender;
    add_int b "watchers" watchers
  | Evidence_emitted { accused; fault_class; period } ->
    add_str b "accused" accused;
    add_str b "class" fault_class;
    add_int b "period" period
  | Evidence_admitted { verdict; detector; accused } ->
    add_str b "verdict" verdict;
    add_int b "detector" detector;
    add_str b "accused" accused
  | Mode_staged { faulty } -> add_int_list b "faulty" faulty
  | Mode_activated { faulty; latency } ->
    add_int_list b "faulty" faulty;
    add_int b "latency" latency
  | Fault_injected { behavior } -> add_str b "behavior" behavior
  | Delivery { flow; period; lane } ->
    add_int b "flow" flow;
    add_int b "period" period;
    add_int b "lane" lane
  | Shed { flow; period } ->
    add_int b "flow" flow;
    add_int b "period" period
  | Verdict { flow; period; status } ->
    add_int b "flow" flow;
    add_int b "period" period;
    add_str b "status" status
  | Standby_activated { task; period } ->
    add_int b "task" task;
    add_int b "period" period
  | Audit_exposed { node } -> add_int b "exposed" node
  | Check_diagnostic { code; severity; detail } ->
    add_str b "code" code;
    add_str b "severity" severity;
    add_str b "detail" detail
  | Campaign_started { trials; configs } ->
    add_int b "trials" trials;
    add_int b "configs" configs
  | Trial_verdict { trial; verdict } ->
    add_int b "trial" trial;
    add_str b "verdict" verdict
  | Violation_shrunk { trial; events_before; events_after } ->
    add_int b "trial" trial;
    add_int b "before" events_before;
    add_int b "after" events_after
  | Campaign_sharded { shard; shards; trials } ->
    add_int b "shard" shard;
    add_int b "shards" shards;
    add_int b "trials" trials
  | Campaign_resumed { skipped; remaining } ->
    add_int b "skipped" skipped;
    add_int b "remaining" remaining
  | Frontier_located { slice; axis; boundary; probes } ->
    add_int b "slice" slice;
    add_str b "axis" axis;
    add_int b "boundary" boundary;
    add_int b "probes" probes

let encode_event b e =
  Buffer.add_string b "{\"t\":";
  Buffer.add_string b (string_of_int e.at);
  Buffer.add_string b ",\"seq\":";
  Buffer.add_string b (string_of_int e.seq);
  Buffer.add_string b ",\"sub\":\"";
  Buffer.add_string b (subsystem_name e.sub);
  Buffer.add_char b '"';
  if e.node >= 0 then add_int b "node" e.node;
  Buffer.add_string b ",\"ev\":\"";
  Buffer.add_string b (payload_tag e.payload);
  Buffer.add_char b '"';
  add_payload b e.payload;
  Buffer.add_char b '}'

let event_to_json e =
  let b = Buffer.create 128 in
  encode_event b e;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Sinks and contexts                                                   *)

type sink =
  | Null
  | Memory of { capacity : int; buf : event option array; mutable next : int }
  | Jsonl of { oc : out_channel; scratch : Buffer.t }

type t = { sink : sink; reg : Registry.t; mutable seq : int }

let null = { sink = Null; reg = Registry.create (); seq = 0 }
let create () = { sink = Null; reg = Registry.create (); seq = 0 }

let with_memory ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Obs.with_memory: capacity < 1";
  {
    sink = Memory { capacity; buf = Array.make capacity None; next = 0 };
    reg = Registry.create ();
    seq = 0;
  }

let with_jsonl oc =
  { sink = Jsonl { oc; scratch = Buffer.create 256 }; reg = Registry.create (); seq = 0 }

let enabled t = t.sink <> Null

let emit t ~at ?(node = -1) sub payload =
  match t.sink with
  | Null -> ()
  | Memory m ->
    let e = { at; seq = t.seq; sub; node; payload } in
    t.seq <- t.seq + 1;
    m.buf.(m.next mod m.capacity) <- Some e;
    m.next <- m.next + 1
  | Jsonl { oc; scratch } ->
    let e = { at; seq = t.seq; sub; node; payload } in
    t.seq <- t.seq + 1;
    Buffer.clear scratch;
    encode_event scratch e;
    Buffer.add_char scratch '\n';
    Buffer.output_buffer oc scratch

let events t =
  match t.sink with
  | Null | Jsonl _ -> []
  | Memory m ->
    let first = Stdlib.max 0 (m.next - m.capacity) in
    List.filter_map
      (fun i -> m.buf.(i mod m.capacity))
      (List.init (m.next - first) (fun k -> first + k))

let registry t = t.reg
let flush t = match t.sink with Jsonl { oc; _ } -> Stdlib.flush oc | _ -> ()
let metrics_json t = Registry.to_json t.reg
