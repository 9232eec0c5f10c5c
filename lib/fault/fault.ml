open Btr_util

type behavior =
  | Crash
  | Omit_outputs
  | Omit_to of int list
  | Delay_outputs of Time.t
  | Corrupt_outputs
  | Equivocate
  | Babble of { bogus_per_period : int }

let behavior_name = function
  | Crash -> "crash"
  | Omit_outputs -> "omit"
  | Omit_to _ -> "omit-to"
  | Delay_outputs _ -> "delay"
  | Corrupt_outputs -> "corrupt"
  | Equivocate -> "equivocate"
  | Babble _ -> "babble"

let pp_behavior ppf b =
  match b with
  | Omit_to nodes ->
    Format.fprintf ppf "omit-to[%s]"
      (String.concat "," (List.map string_of_int nodes))
  | Delay_outputs d -> Format.fprintf ppf "delay(%a)" Time.pp d
  | Babble { bogus_per_period } -> Format.fprintf ppf "babble(%d)" bogus_per_period
  | Crash | Omit_outputs | Corrupt_outputs | Equivocate ->
    Format.pp_print_string ppf (behavior_name b)

type event = { at : Time.t; node : int; behavior : behavior }
type script = event list

let single ~at ~node behavior = [ { at; node; behavior } ]

let sequential_attack ~nodes ~start ~gap behavior =
  List.mapi
    (fun i node -> { at = Time.add start (Time.mul gap i); node; behavior })
    nodes
