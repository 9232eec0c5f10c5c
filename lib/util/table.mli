(** Plain-text tables for experiment output.

    The bench harness prints one table per reproduced experiment; this
    keeps the rendering uniform and column-aligned. *)

type t

val create : title:string -> header:string list -> t
val add_row : t -> string list -> unit
(** Rows shorter than the header are right-padded with empty cells. *)

val render : t -> string
val print : t -> unit
(** Renders to stdout followed by a blank line. *)

val cell_f : float -> string
(** Fixed 3-decimal rendering used for measured values. *)

val cell_pct : float -> string
(** Percentage with 1 decimal, e.g. [12.5%]. *)

(** {1 Deterministic hashtable traversal}

    [Hashtbl.iter]/[Hashtbl.fold] visit bindings in an order that
    depends on the table's insertion history, which silently leaks into
    traces, error messages and JSON output. Every traversal whose
    result order can be observed must use these sorted variants; the
    [btr_lint] determinism linter flags raw [Hashtbl.iter]/[fold]
    call sites repo-wide. *)

val sorted_bindings : cmp:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings, sorted by key under [cmp]. *)

val sorted_keys : cmp:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> 'k list

val sorted_iter :
  cmp:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter] in increasing key order under [cmp]. *)

val sorted_fold :
  cmp:('k -> 'k -> int) ->
  ('k -> 'v -> 'acc -> 'acc) ->
  ('k, 'v) Hashtbl.t ->
  'acc ->
  'acc
(** [fold] in increasing key order under [cmp]. *)
