let with_claimed_resilience (spec : 's Spec.t) ~f =
  if f < 0 then invalid_arg "Combinators.with_claimed_resilience: f < 0";
  { spec with f }
