(** Algorithm synthesis for small parameters.

    The introduction of the paper leans on computer-designed base-case
    algorithms ([4, 5]: SAT-based synthesis of e.g. a 3-state 2-counter
    for n >= 4, f = 1). This module provides the same capability at a
    smaller scale: a parametrised family of candidate algorithms, the
    exact {!Checker} as the verification oracle, and two search
    strategies — exhaustive enumeration for tiny spaces and stochastic
    local search (simulated annealing over transition tables) for larger
    ones, with an explicit evaluation budget and an honest
    [Not_found_within_budget] outcome.

    Candidates are {e uniform} and {e order-invariant}: every node runs
    the same transition table, keyed by its own state and the multiset of
    the other n-1 received states. This subclass keeps the search space
    manageable; the algorithms of [5] for cyclic networks are of a
    similar flavour. *)

type family = {
  n : int;
  f : int;
  c : int;
  s : int;  (** number of per-node states *)
  key_count : int;  (** transition table entries: s * #multisets *)
}

val family : n:int -> f:int -> c:int -> s:int -> family
(** Raises [Invalid_argument] for non-positive parameters or [s < c]
    (outputs are [state mod c], so we need at least [c] states). *)

type candidate = {
  fam : family;
  table : int array;  (** length [key_count], entries in [\[0, s)] *)
}

val to_spec : candidate -> int Algo.Spec.t
(** Runnable/checkable spec of a candidate; output is [state mod c]. *)

type outcome =
  | Found of candidate * Checker.report
  | Not_found_within_budget of { evaluated : int; best_score : int }

val score : candidate -> int
(** Search objective: 0 iff the candidate is a verified counter. Sums,
    over all faulty sets, the number of configurations outside the good
    region, plus a large penalty if the adversary can trap the system
    outside it. *)

val exhaustive : ?budget:int -> family -> outcome
(** Enumerate tables in lexicographic order until verified or [budget]
    (default [200_000]) candidates evaluated. *)

val anneal : ?budget:int -> ?restarts:int -> seed:int -> family -> outcome
(** Simulated annealing: random initial table, single-entry mutations,
    Metropolis acceptance on {!score} with geometric cooling; [restarts]
    (default 5) independent chains within a total [budget] (default
    20_000 evaluations). *)
