(** Spec-to-spec transformations. *)

val with_claimed_resilience : 's Spec.t -> f:int -> 's Spec.t
(** Override the resilience tag (used when a construction is known to
    tolerate fewer faults than the generic formula suggests, or in tests
    that deliberately weaken a spec). *)
