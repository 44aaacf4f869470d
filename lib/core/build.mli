(** Turn a {!Plan.tower} into a runnable algorithm.

    The tower is instantiated bottom-up: a trivial 0-resilient counter
    (one node, or a [follow-leader] block when [base_n > 1]) at the
    bottom, one application of {!Boost.construct} per level. State types
    change at every level, so results are packed existentially. *)

val tower : Plan.tower -> Algo.Spec.packed
(** The fully-built algorithm of the tower's top level. *)

val describe : Plan.tower -> string
(** Multi-line human-readable rendering of a tower: one line per level
    with n, F, k, modulus, time bound, state bits. *)
