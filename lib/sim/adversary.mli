(** Byzantine adversary strategies.

    Section 2: up to [f] nodes are Byzantine and may exhibit arbitrary
    behaviour, *including sending different messages to every node* in
    the same round. The simulator is a full-information adversary
    playground: each round the strategy sees the true states of all nodes
    and fabricates, for every faulty sender, one message per recipient.

    Strategies are generic in the state type: they fabricate messages only
    through the spec's [random_state], by replaying true states of other
    nodes (current or past), or by simulating recipients' transitions.
    This is exactly the power a real adversary has without knowing the
    state type's internal semantics, and it is enough to break naive
    algorithms (see the ablation benches). *)

type 's crafter = {
  craft :
    spec:'s Algo.Spec.t ->
    rng:Stdx.Rng.t ->
    round:int ->
    states:'s array ->
    faulty:int array ->
    's array array;
      (** [craft ... ] returns [msgs] with [msgs.(fi).(r)] = the message
          the [fi]-th faulty node sends to recipient [r] this round. *)
}

type flat_env = {
  n : int;  (** node count — fixes the [out] row stride *)
  random_code : Stdx.Rng.t -> int;
      (** the spec codec's {!Algo.Spec.codec.random_code}: a random
          state in code space, consuming the rng exactly like the
          spec's [random_state] *)
  output_code : self:int -> int -> int;
      (** the spec codec's {!Algo.Spec.codec.output_code}: a node's
          output read straight off a state code *)
  fresh_kernel : unit -> Algo.Spec.kernel;
      (** the spec codec's {!Algo.Spec.codec.fresh_kernel}. A flat
          kernel that simulates recipients' transitions calls it at
          most once per phase (when [fresh_flat] builds the crafter)
          and owns the result: the engine's own kernel is never
          shared, so probing cannot disturb the engine's scratch or
          caches. Stepping it consumes the given rng exactly like the
          spec's [transition]. *)
}
(** Everything a flat kernel may know about the algorithm it attacks:
    the node count, a code-space random sampler, the output map and
    the code-space transition. Deliberately no decoder — flat kernels
    are zero-decode by construction. *)

type flat_crafter = {
  craft_flat :
    rng:Stdx.Rng.t ->
    round:int ->
    states:Statebuf.t ->
    faulty:int array ->
    out:int array ->
    unit;
      (** Code-space twin of {!crafter.craft}: read the packed current
          states, write the crafted message codes into the preallocated
          [out] with [out.(fi * n + r)] = the code the [fi]-th faulty
          node sends to recipient [r]. Only slots of the current faulty
          set may be written ([out] is engine-owned scratch, not
          cleared between rounds).

          {b RNG stream contract:} a flat kernel must consume [rng]
          draw-for-draw like its boxed twin on the same round — same
          number of draws, same order, each random state drawn through
          {!flat_env.random_code}. This is what keeps flat-crafted runs
          bit-identical to boxed-crafted ones (certified by the
          differential suite in [test_flat.ml]). *)
}

type 's t = {
  name : string;
  benign : bool;
      (** Structural marker for non-attacking strategies: [true] only for
          {!benign}. Suite membership ({!hostile_suite}) keys on this tag,
          not on the display name. *)
  fresh : unit -> 's crafter;
      (** A new stateful crafter per run (history buffers etc.). *)
  fresh_flat : flat_env -> flat_crafter;
      (** Code-level kernel of the same strategy: a fresh stateful
          instance per phase, like {!fresh}. The engine's flat path
          crafts only through it, and the boxed path only through
          {!fresh}; there is no fallback between the two. So a new
          strategy must ship both, and its kernel must meet the RNG
          stream contract of {!flat_crafter.craft_flat}, or flat and
          boxed runs of the same seed diverge. The craft-level lockstep
          and flat-vs-boxed differentials in [test_flat.ml] check it. *)
}

val name : 's t -> string

val benign : unit -> 's t
(** Faulty nodes behave exactly like correct ones. *)

val stuck : unit -> 's t
(** Crash-like: faulty nodes keep broadcasting the state they held when
    the run started (a stuck register in the circuit interpretation). *)

val random_consistent : unit -> 's t
(** Each faulty node draws a fresh random state each round and sends it to
    everyone (non-equivocating noise). *)

val random_equivocate : unit -> 's t
(** Each faulty node sends an independent random state to every recipient
    every round — the max-entropy Byzantine strategy. *)

val mimic : offset:int -> unit -> 's t
(** Each faulty node impersonates a correct node (chosen by rotating over
    correct ids with [offset]), sending that node's true current state.
    Creates plausible-but-duplicated views. When every node is faulty
    (n = f) there is nobody to impersonate: each faulty node replays its
    own state instead of crashing. *)

val split_brain : unit -> 's t
(** Equivocation attack: recipients with even id receive the current
    state of one correct node, odd ids that of another — the classic
    strategy to drive two halves of the network apart. With an empty
    correct set (n = f), falls back to replaying each faulty node's own
    state. *)

val stale : delay:int -> unit -> 's t
(** Replay the faulty node's own true state from [delay] rounds ago
    (a frozen/laggy subsystem). [delay = 0] is truthful; in the first
    [delay] rounds, before enough history exists, the current state is
    sent (the history fallback). Raises [Invalid_argument] on negative
    [delay]. *)

val replay_correct : delay:int -> unit -> 's t
(** Replay a *correct* node's state from [delay] rounds ago: stale but
    internally consistent information. With an empty correct set (n = f),
    replays the faulty node's own old state. Same [delay] contract as
    {!stale}: [>= 0] (raises [Invalid_argument] otherwise), current state
    until history fills. *)

val flip_flop : unit -> 's t
(** Alternate between two random states drawn once at the start, switching
    every round; recipients with odd id see the phase inverted. *)

val greedy_confusion : pool:int -> unit -> 's t
(** One-step lookahead attack: for each recipient, pick from a candidate
    pool (true states of all correct nodes plus [pool] random states) the
    message that, assuming everyone else tells the truth, maximises the
    spread (number of distinct values) of next-round outputs among the
    correct nodes' truthful next outputs and the recipient's; ties go to
    the first candidate. The strongest generic strategy in the suite;
    costs O((n + pool) * n * transition) per faulty node per round.

    Each round consumes the rng as: [pool] random states, then one
    [Stdx.Rng.split] per correct node (ascending; its truthful next
    state), then one split per (faulty sender, correct recipient,
    candidate) probe in that nesting order. Faulty recipients get the
    sender's own state and cost no draw. The flat kernel does the same
    in code space, stepping a private {!flat_env.fresh_kernel} built
    once per phase, so each probe differs from the kernel's previous
    input in about one slot. *)

val standard_suite : unit -> 's t list
(** The adversaries used by tests and experiments: benign, stuck,
    random_consistent, random_equivocate, mimic, split_brain, stale,
    replay_correct, flip_flop. (Excludes [greedy_confusion], which is run
    separately because of its cost.) *)

val hostile_suite : unit -> 's t list
(** [standard_suite] minus the strategies tagged [benign]. *)
