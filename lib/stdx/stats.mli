(** Descriptive statistics over measurement samples (stabilisation times,
    message counts, dwell lengths). All functions take non-empty inputs
    unless noted, and reject NaN with [Invalid_argument]: aggregating
    with polymorphic [compare]/[min]/[max] silently mis-sorts in the
    presence of NaN, so all comparisons use [Float.compare] /
    [Float.min] / [Float.max] behind an explicit NaN check. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
  p90 : float;
  p99 : float;
}

val mean : float list -> float
val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [\[0,1\]], linear interpolation between
    order statistics. *)

val summarize_ints : int list -> summary
val pp_summary : Format.formatter -> summary -> unit
