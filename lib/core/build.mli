(** Turn a {!Plan.tower} into a runnable algorithm.

    The tower is instantiated bottom-up: a trivial 0-resilient counter
    (one node, or a [follow-leader] block when [base_n > 1]) at the
    bottom, one application of {!Boost.construct} per level. State types
    change at every level, so results are packed existentially. *)

type packed_boost = Packed_boost : 's Boost.t -> packed_boost

val tower : Plan.tower -> Algo.Spec.packed
(** The fully-built algorithm of the tower's top level. *)

val tower_boost : Plan.tower -> packed_boost
(** Same, but exposing the top level's construction record (parameters,
    probes) for instrumented experiments. *)

val describe : Plan.tower -> string
(** Multi-line human-readable rendering of a tower: one line per level
    with n, F, k, modulus, time bound, state bits. *)
