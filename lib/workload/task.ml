open Btr_util

type id = int
type kind = Source | Compute | Sink
type criticality = Best_effort | Low | Medium | High | Safety_critical

let criticality_rank = function
  | Best_effort -> 0
  | Low -> 1
  | Medium -> 2
  | High -> 3
  | Safety_critical -> 4

let criticality_of_rank = function
  | 0 -> Best_effort
  | 1 -> Low
  | 2 -> Medium
  | 3 -> High
  | 4 -> Safety_critical
  | r -> invalid_arg (Printf.sprintf "Task.criticality_of_rank: %d" r)

let compare_criticality a b = Int.compare (criticality_rank a) (criticality_rank b)

let pp_criticality ppf c =
  Format.pp_print_string ppf
    (match c with
    | Best_effort -> "best-effort"
    | Low -> "low"
    | Medium -> "medium"
    | High -> "high"
    | Safety_critical -> "safety-critical")

let all_criticalities = [ Best_effort; Low; Medium; High; Safety_critical ]

type t = {
  id : id;
  name : string;
  kind : kind;
  wcet : Time.t;
  criticality : criticality;
  state_size : int;
  pinned : int option;
}

let make ~id ~name ?(kind = Compute) ~wcet ?(criticality = Medium)
    ?(state_size = 0) ?pinned () =
  if wcet <= 0 then
    invalid_arg (Printf.sprintf "Task.make: %s has wcet <= 0" name);
  if state_size < 0 then
    invalid_arg (Printf.sprintf "Task.make: %s has negative state" name);
  (match kind, pinned with
  | (Source | Sink), None ->
    invalid_arg
      (Printf.sprintf "Task.make: %s is a source/sink and must be pinned" name)
  | _ -> ());
  { id; name; kind; wcet; criticality; state_size; pinned }

let pp ppf t =
  Format.fprintf ppf "task %d (%s) %s wcet=%a crit=%a%s" t.id t.name
    (match t.kind with Source -> "source" | Compute -> "compute" | Sink -> "sink")
    Time.pp t.wcet pp_criticality t.criticality
    (match t.pinned with
    | Some n -> Printf.sprintf " pinned=%d" n
    | None -> "")
