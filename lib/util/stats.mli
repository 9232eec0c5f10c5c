(** Summary statistics for experiment reporting. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : float list -> summary
(** Full-population summary. Raises [Invalid_argument] on []. *)

val summarize_opt : float list -> summary option

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [0,100], linear interpolation between
    order statistics. Raises [Invalid_argument] on []. *)
