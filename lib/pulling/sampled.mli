(** Randomised resilience boosting in the pulling model
    (Sections 5.2-5.5; Theorem 4, Corollaries 4-5).

    The deterministic construction of Theorem 1 reads {e all} N states
    each round, at two places only: the majority votes electing the
    leader block (and its round counter R), and the phase-king quorum
    counts. Both are threshold tests, so both survive sampling: with
    [M = Theta(log eta)] uniform samples, a 2/3-fraction test on the
    samples decides an (N-F)-quorum correctly with probability
    [1 - eta^-kappa] (Lemma 8), and a per-block sample of size M contains
    a majority of non-faulty nodes w.h.p. (Lemma 9).

    Per round, a node pulls:
    - its [n - 1] block peers (the inner counter runs on full
      information inside the small block),
    - [M] states from every block ([k * M]) for the leader vote,
    - [M] states from the whole network for the phase-king counts,
    - the expected king: the node remembers the previous round counter
      [R] in its state and pulls node [(R+1)/3] when the next
      instruction will be a king round. After stabilisation the
      prediction is always right; before it, nothing is guaranteed
      anyway.

    Total: [n - 1 + (k+1)M + 1 = O(n + k log eta)] pulls — Theorem 4's
    bound — versus [N - 1] for broadcast.

    The {e oblivious} variant ([construct_oblivious]) draws all sample
    links once from a dedicated seed and reuses them every round, and
    pulls all [F+2] potential kings instead of predicting (a static pull
    set cannot adapt to [R]). Against an adversary that picks the faulty
    set independently of those coins this is Corollary 5's pseudo-random
    counter: with high probability over the link seed the execution
    stabilises, and from then on behaves fully deterministically.

    Both variants are ordinary {!Algo.Spec.t} values with a codec, so
    they run on [Sim.Engine] like every broadcast counter. A pulled
    read is the puller's view of one slot of the broadcast vector: the
    transition draws its targets from the node's own rng stream and
    reads [received] at those slots only, and the engine's
    per-recipient crafting lets a faulty target answer every puller
    differently. Pull counts are a function of the pulling node's state
    ({!t.pull_count}); {!tally} sums them over a [Sim.Network.run]
    trace.

    {2 Adversary assumptions of the experiments}

    The engine's adversary crafts each round's messages before any
    recipient draws that round's pull targets, so it never sees the
    current round's coins.
    - E5 ([bench pulling], Theorem 4) runs {!construct} under
      [Sim.Adversary.random_equivocate]: the {e adaptive} model, fresh
      sample coins every round, the fault pattern free to depend on
      everything before the round.
    - E6 ([bench oblivious], Corollary 5) runs {!construct_oblivious}
      under [random_equivocate] with faulty sets fixed before the link
      seed is drawn: the {e oblivious} model, the fault pattern
      independent of the links. A lookahead strategy such as
      [greedy_confusion] simulates recipients' transitions and so sees
      the links; it falls outside Corollary 5's assumption.
    - E8 ([bench bits]) is E5's adaptive setting at M = 16, counting
      pulled bits. *)

type 's state = {
  inner : 's;
  a : int option;
  d : bool;
  prev_r : int;  (** last observed round counter R, for king prediction *)
}

type 's t = {
  spec : 's state Algo.Spec.t;
      (** the sampled counter; its codec packs (inner code, a, d, prev_r)
          and uses {!Algo.Spec.generic_kernel} *)
  pulls_per_round : int;  (** worst-case pulls of a non-faulty node *)
  pulls : self:int -> rng:Stdx.Rng.t -> 's state -> int array;
      (** the targets a node pulls this round, drawn from [rng] exactly
          as [spec.transition] draws them before reading its vector;
          duplicates allowed (sampling with replacement), each
          occurrence is paid for *)
  pull_count : self:int -> 's state -> int;
      (** [Array.length (pulls ~self ~rng state)] for any [rng]: pure,
          draws nothing *)
}

val construct :
  inner:'s Algo.Spec.t -> k:int -> big_f:int -> big_c:int -> samples:int ->
  's t
(** Adaptive sampling (fresh coins every round). Raises on invalid
    Theorem 1 parameters or [samples < 1]. *)

val construct_oblivious :
  inner:'s Algo.Spec.t ->
  k:int ->
  big_f:int ->
  big_c:int ->
  samples:int ->
  links_seed:int ->
  's t
(** Fixed-links pseudo-random variant (Corollary 5). *)

type tally = {
  max_pulls : int;  (** max pulls per round by a non-faulty node *)
  total_pulls : int;  (** summed over non-faulty nodes and all rounds *)
  bits_pulled_per_round : float;
      (** average bits received per non-faulty node per round *)
}

val tally : 's t -> 's state Sim.Network.run -> tally
(** Pull accounting of a full trace: the pulls of every non-faulty node
    in rounds [0 .. rounds - 1], from its start-of-round state. Faulty
    nodes' pulls cost the honest nodes nothing and are not counted. *)
