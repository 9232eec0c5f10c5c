(** Determinism linter for the BTR sources.

    Everything in this repository must be byte-deterministic: traces
    replay exactly, the planner is a pure function of its inputs, and
    two runs with the same seed are identical. The classic ways OCaml
    code silently loses that property are (a) iterating a [Hashtbl] —
    order depends on insertion history and hash seeding, (b) polymorphic
    [compare]/[=] on domain types — order changes when a type gains a
    field, and mutable records compare by current contents, (c) reading
    the wall clock, and (d) the global [Random] state. This module
    detects those patterns syntactically (via ppxlib's parser — no type
    information needed) so CI can refuse them; [bin/btr_lint] is the
    driver.

    A finding is suppressed by a comment [(* btr-lint: allow <rule> *)]
    placed on the same line or the line above (the comment may span
    lines; suppression covers the line after it ends). The sanctioned
    escape hatches live in {!Btr_util.Table} ([sorted_iter] and
    friends) and [lib/util/rng.ml], which is exempt from the clock and
    random rules — it is where seeding is allowed to touch the world. *)

type rule =
  | Hashtbl_order
      (** BTR-L001: [Hashtbl.iter]/[fold]/[to_seq*], and the same
          iterators of [Btr_util.Inttbl], observe nondeterministic
          order; route through [Table.sorted_*] or [Inttbl.sorted_keys]. *)
  | Poly_compare
      (** BTR-L002: bare [compare], or [=]/[<>] passed first-class —
          structural comparison that silently changes meaning as types
          evolve. Use a typed compare ([Int.compare], a domain [cmp]). *)
  | Wall_clock
      (** BTR-L003: [Sys.time]/[Unix.gettimeofday] etc. — wall-clock
          readings do not replay. Simulated time is [Btr_util.Time]. *)
  | Raw_random
      (** BTR-L004: the global [Random] module — unseeded, unsplittable
          state. Use [Btr_util.Rng]. *)
  | Fingerprint_order
      (** BTR-L005: a [Hashtbl] iterator inside the arguments of an
          [Btr_util.Fnv] fingerprint call ([Fnv.hash], [Fnv.hash64],
          [Fnv.hash64_lines]) with no intervening sort. Worse than
          L001: the nondeterministic order is baked into a hash that
          typically keys a memo table or a cross-run artifact, so two
          identical systems fingerprint differently and incremental
          reuse silently breaks. Emitted in addition to L001 at the
          same location. *)

val all_rules : rule list

val rule_name : rule -> string
(** The name used in [btr-lint: allow <name>] directives:
    ["hashtbl-order"], ["poly-compare"], ["wall-clock"],
    ["raw-random"], ["fingerprint-order"]. *)

val rule_of_name : string -> rule option
val rule_id : rule -> string
(** Stable code: ["BTR-L001"] … ["BTR-L005"]. *)

val describe : rule -> string

type finding = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  message : string;
}

val lint_string : file:string -> string -> (finding list, string) result
(** Lints one compilation unit given as source text; [file] labels
    findings and selects path exemptions (a path ending in
    [lib/util/rng.ml] is exempt from {!Wall_clock} and {!Raw_random}).
    [Error] carries a parse-failure message. Findings are in source
    order. *)

val lint_file : string -> (finding list, string) result
(** Reads the file and delegates to {!lint_string}. *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line:col: [BTR-L001] message] — compiler-style, clickable. *)
