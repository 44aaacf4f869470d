(** Deterministic splittable pseudo-random number generator.

    The implementation is SplitMix64 (Steele, Lea, Flood 2014). All
    randomness in the repository — arbitrary initial states, Byzantine
    message fabrication, sampling in the pulling model — flows through
    this module so that every experiment is reproducible from a seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Equal
    seeds yield equal streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator seeded from it.
    Streams of the parent and the child are statistically independent. *)

val split_into : t -> t -> unit
(** [split_into t child] advances [t] exactly as [split t] does and
    re-seeds [child] in place, so that [child] then yields the stream
    [split t] would have returned. It allocates nothing: a caller that
    throws each child away reuses one buffer for all of them. Only the
    boxed reference simulator ([test/reference.ml]) calls it, to draw
    the greedy crafter's probe streams exactly as the engine does. *)

val split_nth : t -> int -> t -> unit
(** [split_nth t k child] re-seeds [child] as the [k]-th (from 0) of a
    run of [split_into t] calls would, in O(1); [t] does not move. *)

val advance : t -> int -> unit
(** [advance t k] moves [t] as [k] draws would, in O(1). *)

val next_int64 : t -> int64
(** Next raw 64-bit output. Only tests call it: [test_flat.ml] compares
    two generators' positions with it after the flat and boxed crafters
    draw from them, and [test_stdx.ml] pins the raw stream. *)

val bits : t -> int
(** 30 uniformly random non-negative bits, as in [Random.bits]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val int_sampler : int -> t -> int
(** [int_sampler bound] draws as [fun t -> int t bound] does, with the
    rejection threshold computed once, not per draw. *)

val bool : t -> bool
(** Fair coin. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct values from
    [\[0, n)]. Raises [Invalid_argument] if [k > n] or [k < 0]. *)
