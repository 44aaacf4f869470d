(** Small exact integer math helpers used throughout the parameter
    calculations of the recursive construction (Theorem 1, Theorems 2-3). *)

val mul_checked : int -> int -> int
(** Exact product; raises [Failure] on 63-bit overflow. *)

val pow : int -> int -> int
(** [pow b e] is [b{^e}] for [e >= 0], computed exactly. Raises
    [Invalid_argument] on negative exponents and [Failure] on overflow. *)

val bits_for : int -> int
(** [bits_for n] is the number of bits needed to store a value drawn from
    a set of [n] distinct values: [max 1 ⌈log₂ n⌉], the least [b >= 1]
    with [2{^b} >= n]. Raises [Invalid_argument] if [n <= 0].
    This matches the paper's [S(A) = ⌈log |X|⌉] with the convention that
    even a singleton state space occupies one bit of description. *)

val imod : int -> int -> int
(** [imod a m] is the mathematical [a mod m], always in [\[0, m)],
    also for negative [a]. *)
