(** Incremental (online) stabilisation detection.

    The offline checker ({!Stabilise.of_outputs}) walks backwards over a
    complete output trace. This module maintains the same information in
    O(1) amortised work per round and O(n + window) memory, so a
    simulation can detect stabilisation {e while running} and early-exit
    (see {!Engine}).

    The detector tracks the {e seam}: the earliest round [t] such that
    every step in [t, last)] is a clean counting step (agreement at both
    ends, increment mod [c]; see {!Stabilise.count_ok_step}). Feeding the
    detector every output row of a trace in order makes {!verdict}
    identical to [Stabilise.of_outputs] on that trace, for any
    [min_suffix >= 1]; a QCheck test in [test_sim.ml] exercises this
    equivalence on random traces. *)

type verdict = Stabilized of int | Not_stabilized
(** Same meaning as {!Stabilise.verdict} — [Stabilise.verdict] is a
    re-export of this type, so the constructors are interchangeable. *)

val equal_verdict : verdict -> verdict -> bool

val pp_verdict : Format.formatter -> verdict -> unit
(** Only tests print verdicts, in their failure messages:
    [test_report.ml] and [test_rand_counter.ml]. *)

type t
(** Mutable detector state: O(1) counters plus a bounded sliding window
    of recent output rows kept for diagnostics. *)

val create :
  ?window:int -> c:int -> correct:int list -> min_suffix:int -> unit -> t
(** [create ~c ~correct ~min_suffix ()] makes a detector for outputs
    modulo [c] restricted to the [correct] node ids. [min_suffix >= 1]
    (raises [Invalid_argument] otherwise; horizon-aware validation, e.g.
    never accepting a suffix shorter than [c], is the caller's contract —
    see {!Min_suffix}). [window] bounds the number of recent output
    rows retained (default 8). *)

val observe : t -> round:int -> int array -> unit
(** [observe t ~round row] feeds the output row of [round]. Rounds must
    be consecutive starting from 0; raises [Invalid_argument] otherwise.
    The row is copied; the caller may reuse the array. *)

val verdict : t -> verdict
(** Verdict as if the trace ended at the last observed round — identical
    to [Stabilise.of_outputs ~c ~correct ~min_suffix] on the rows fed so
    far. *)

val stabilised : t -> bool
(** [verdict t <> Not_stabilized]. *)

val reset : ?correct:int list -> t -> unit
(** Reset-at-perturbation: discard all stabilisation evidence observed so
    far by moving the seam to the next round to be observed, optionally
    replacing the correct set ([?correct]) for subsequent rows — the
    chaos engine calls this at phase boundaries (new faulty set) and at
    transient corruption events. The round counter and the recent-rows
    window are untouched: the detector keeps accepting consecutive rounds
    and [verdict] is relative to the post-reset suffix only, so
    [Stabilized s] after a reset implies a clean counting suffix of
    [min_suffix] rounds that started at or after the perturbation. *)

val recent : t -> (int * int array) list
(** The sliding window of recent [(round, outputs)] rows, oldest first;
    at most [window] entries. *)
