(** Resilience boosting — Theorem 1, the paper's main construction.

    Given a synchronous [c]-counter [A] on [n] nodes tolerating [f]
    faults, build a [C]-counter [B] on [N = k*n] nodes tolerating
    [F < (f+1) * ceil(k/2)] faults, with

    - [T(B) <= T(A) + 3(F+2)(2m)^k]  (m = ceil(k/2)), and
    - [S(B) = S(A) + ceil(log2(C+1)) + 1] state bits,

    provided [c] is a multiple of [3(F+2)(2m)^k] and [C > 1].

    The composed node [(i, j)] (the [j]-th node of block [i]) keeps the
    state of [A_i] (a copy of [A] running inside block [i]) plus the two
    phase-king registers [a] and [d]. Each round it:

    + feeds the received states of its own block into [A]'s transition;
    + decodes every node's block counter into the view [(r, y, b)]
      (see {!Counter_view}) and computes, by nested majority votes, the
      supported leader block [B] and that block's round counter [R]
      (Section 3.3);
    + executes phase-king instruction set [I_R] on its [a]/[d] registers
      (Section 3.4).

    Once every non-faulty node reads the same [R] for
    [tau = 3(F+2)] consecutive rounds — which Lemmas 1-3 guarantee happens
    within [3(F+2)(2m)^k] rounds of the block counters stabilising — some
    non-faulty king completes a full 3-round block, agreement on [a] is
    reached (Lemma 4) and persists forever (Lemma 5). *)

type 's state = { inner : 's; a : int option; d : bool }

type params = {
  k : int;  (** number of blocks, >= 3 *)
  m : int;  (** ceil(k/2): number of candidate leader blocks *)
  n_inner : int;  (** nodes per block *)
  f_inner : int;  (** resilience of the inner counter *)
  big_n : int;  (** = k * n_inner *)
  big_f : int;  (** tolerated faults of the boosted counter *)
  big_c : int;  (** output counter size C > 1 *)
  tau : int;  (** = 3(F+2) *)
  time_overhead : int;  (** = 3(F+2)(2m)^k: additive stabilisation cost *)
  required_inner_c : int;
      (** the inner counter's modulus must be a multiple of this;
          numerically equal to [time_overhead] *)
}

val plan :
  k:int ->
  big_f:int ->
  big_c:int ->
  n_inner:int ->
  f_inner:int ->
  inner_c:int ->
  (params, string) result
(** Check all preconditions of Theorem 1 (including the extra [F < N/3]
    required when instantiating with the trivial base, cf. Corollary 1)
    and compute the derived parameters. *)

type 's t = {
  spec : 's state Algo.Spec.t;  (** the boosted algorithm [B] *)
  params : params;
  inner : 's Algo.Spec.t;
  view_params : Counter_view.params array;
      (** per block level [i] in [\[0, k)] *)
}

val construct : inner:'s Algo.Spec.t -> k:int -> big_f:int -> big_c:int -> 's t
(** Build [B] from [A]. Raises [Invalid_argument] when [plan] fails. *)

(** {2 Ablations}

    Deliberately broken variants of the construction, exercising exactly
    the design constants Theorem 1's proof depends on. They exist only
    for the ablation benches; none of them is a correct counter in
    general. *)

type ablation =
  | Short_window of int
      (** replace [tau = 3(F+2)] by a smaller value: fewer kings get a
          complete 3-round block, so placing the faults on the surviving
          kings starves the phase king (ablation A1) *)
  | Pointer_base_m
      (** leader pointers derived with base [m] instead of [2m]: each
          block sweeps the candidate list only once per period and the
          staggered-overlap argument of Lemma 2 breaks (ablation A2) *)
  | Naive_phase_king
      (** Table 2's instructions with thresholds [Phase_king.Majority]
          (simple majority and 1) in place of [N-F] and [F+1]: Byzantine
          votes can fake support (ablation A3) *)

val construct_ablated :
  ablation:ablation ->
  inner:'s Algo.Spec.t ->
  k:int ->
  big_f:int ->
  big_c:int ->
  's t
(** Same plumbing as {!construct} with the selected defect injected. *)

val node_of : params -> block:int -> slot:int -> int
(** The flat id of node [slot] of block [block]:
    [block * n_inner + slot]. Outside this module only tests call it:
    [test_boost.ml] ("node/block mapping") checks it inverts
    {!block_of}. *)

val block_of : params -> int -> int * int
(** [(block, slot)] of a flat node id, the inverse of {!node_of}. The
    step addresses blocks through the pair; outside this module only
    tests call it: [test_boost.ml] ("node/block mapping") pins the
    flat node layout with it. *)

(** {2 Instrumentation}

    Omniscient probes over a full (true) state vector, mirroring exactly
    the quantities a correct node computes from its received vector. Used
    by the Figure 1 / Lemma 2-3 experiments. *)

type probe = {
  views : Counter_view.t array;  (** per node: its block counter view *)
  block_votes : int array;  (** [b^i] per block: majority leader pointer *)
  leader : int;  (** [B]: majority over block votes *)
  r_value : int;  (** [R]: majority round counter of block [B] *)
}

val probe_states : 's t -> 's state array -> probe

(** {2 The leader vote, shared with the sampled counter} *)

val leader_vote :
  k:int ->
  ballots:int ->
  (int -> int -> Counter_view.t) ->
  int array * int * int
(** Section 3.3's nested vote, [(block_votes, leader, r_value)]: block
    [i] votes the majority [b] of its ballots [ballot i j], [j <
    ballots]; the leader [B] is the majority block vote, [R] the
    majority [r] of block [B]'s ballots (every majority defaults to 0).
    {!probe_states} and the broadcast step vote over each block's [n]
    nodes, the sampled counter over [M] samples of each. *)

val time_bound : inner_time:int -> params -> int
(** [T(A) + 3(F+2)(2m)^k]. *)
