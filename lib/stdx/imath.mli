(** Small exact integer math helpers used throughout the parameter
    calculations of the recursive construction (Theorem 1, Theorems 2-3). *)

val mul_checked : int -> int -> int
(** Exact product; raises [Failure] on 63-bit overflow. *)

val pow : int -> int -> int
(** [pow b e] is [b{^e}] for [e >= 0], computed exactly. Raises
    [Invalid_argument] on negative exponents and [Failure] on overflow. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [⌈a / b⌉] for [a >= 0], [b > 0]. *)

val ceil_log2 : int -> int
(** [ceil_log2 n] is the least [b] with [2{^b} >= n], i.e. [⌈log₂ n⌉];
    the number of bits needed to index a set of [n] elements.
    [ceil_log2 1 = 0]. Raises [Invalid_argument] if [n <= 0]. *)

val bits_for : int -> int
(** [bits_for n] is the number of bits needed to store a value drawn from
    a set of [n] distinct values: [max 1 (ceil_log2 n)].
    This matches the paper's [S(A) = ⌈log |X|⌉] with the convention that
    even a singleton state space occupies one bit of description. *)

val is_multiple : int -> of_:int -> bool
(** [is_multiple c ~of_:d] tests [d] divides [c]. *)

val lcm : int -> int -> int
(** Least common multiple. *)

val gcd : int -> int -> int
(** Greatest common divisor. *)

val imod : int -> int -> int
(** [imod a m] is the mathematical [a mod m], always in [\[0, m)],
    also for negative [a]. *)
