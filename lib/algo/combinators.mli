(** Spec-to-spec transformations.

    The central one is [project_counter]: Section 3.2 derives from a
    [c]-counter [A = (X, g, h)] the [c_i]-counter [A_i = (X, g, h_i)]
    with [h_i(x) = h(x) mod c_i], for every divisor [c_i] of [c]. The
    transition function and hence stabilisation time and state bits are
    untouched: [T(A_i) = T(A)], [S(A_i) = S(A)]. *)

val project_counter : 's Spec.t -> modulus:int -> 's Spec.t
(** [project_counter spec ~modulus] is the [modulus]-counter outputting
    [spec]'s output mod [modulus]. Raises [Invalid_argument] unless
    [modulus] divides [spec.c] and [modulus >= 1]. *)

val rename : 's Spec.t -> string -> 's Spec.t
(** Replace the display name. *)

val with_claimed_resilience : 's Spec.t -> f:int -> 's Spec.t
(** Override the resilience tag (used when a construction is known to
    tolerate fewer faults than the generic formula suggests, or in tests
    that deliberately weaken a spec). *)
