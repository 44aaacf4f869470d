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
    algorithms (see the ablation benches).

    Every strategy works in the code space of the spec's
    {!Algo.Spec.codec}: it reads the engine's packed state vector and
    writes message codes, never decoding a state. A boxed twin of each
    strategy, over ['s] state vectors, lives only in the test suite
    ([test/reference.ml]), as the slow reference the kernels are
    certified against.

    Six strategies never equivocate — {!benign}, {!stuck},
    {!random_consistent}, {!mimic}, {!stale} and {!replay_correct} send
    each faulty node's one message to every recipient — and their
    kernels declare it every round (the return value of
    {!flat_crafter.craft_flat}), so the engine delivers such rows at
    the cost of one slot. {!random_equivocate}, {!split_brain},
    {!flip_flop} and {!greedy_confusion} write full rows. *)

type flat_env = {
  n : int;  (** node count — fixes the [out] row stride *)
  c : int;
      (** the spec's counter modulus: outputs lie in [\[0, c)], so a
          lookahead kernel knows when a set of outputs is complete *)
  random_code : Stdx.Rng.t -> int;
      (** the spec codec's {!Algo.Spec.codec.random_code}: a random
          state in code space, consuming the rng exactly like the
          spec's [random_state] *)
  probe_kernel : unit -> Algo.Spec.kernel;
      (** a kernel of the spec codec ({!Algo.Spec.codec.fresh_kernel})
          lent for probing: never the engine's own, so probing cannot
          disturb the engine's scratch or caches. Every call within one
          engine run returns the same kernel, which the engine keeps
          for later runs on its domain, so a crafter that simulates
          recipients' transitions borrows it when [fresh_flat] builds
          the crafter and must [load] it before each use ([load] is the
          reset). Its [step] consumes the given rng exactly like the
          spec's [transition]; its [step_output] may not, so it is
          given only throwaway streams. *)
}
(** Everything a flat kernel may know about the algorithm it attacks:
    the node count, a code-space random sampler and the code-space
    transition (whose [step_output] is the output map applied to a
    next state). Deliberately no decoder — flat kernels
    are zero-decode by construction. *)

type flat_crafter = {
  craft_flat :
    rng:Stdx.Rng.t ->
    round:int ->
    states:int array ->
    faulty:int array ->
    out:int array ->
    bool;
      (** Read the current state codes ([states.(v)], node [v]'s;
          engine-owned, read-only), write the crafted message
          codes into the preallocated [out] with [out.(fi * n + r)] =
          the code the [fi]-th faulty node sends to recipient [r]. Only
          slots of the current faulty set may be written ([out] is
          engine-owned scratch, not cleared between rounds).

          {b Return value:} [true] declares this round's rows constant:
          every faulty sender sends one code to all recipients, and
          only [out.(fi * n)] is meaningful — the crafter need write no
          other slot of the row, and the engine reads no other (the
          rest may hold any earlier round's codes). [false] means
          every [out.(fi * n + r)], [r] in [\[0, n)], is written and
          read. The engine takes a [true] on trust: it skips recipient
          grouping and the per-recipient compares, so a row that is
          not in fact constant silently delivers [out.(fi * n)] to
          every recipient. A wrong [true] is therefore a correctness
          bug, not a slow path; a [false] on a constant row only costs
          time.

          {b RNG stream contract:} a kernel consumes [rng] exactly as
          its strategy's documentation says — same number of draws,
          same order, each random state drawn through
          {!flat_env.random_code} — so that runs are reproducible from
          the seed alone. The boxed reference crafters in the test suite
          draw the same way, and the craft-level lockstep and
          per-round trajectory differentials in [test_flat.ml] check
          each kernel against them. *)
}

type 's t = {
  name : string;
  benign : bool;
      (** Structural marker for non-attacking strategies: [true] only for
          {!benign}. Suite membership ({!hostile_suite}) keys on this tag,
          not on the display name. *)
  fresh_flat : flat_env -> flat_crafter;
      (** The strategy's code-space kernel: a fresh stateful instance
          (history ring, frozen codes, private probe kernel) per phase.
          The engine crafts only through it. A new strategy ships its
          kernel here and a boxed twin in the test suite's reference
          module, which looks crafters up by {!name}; the two must meet
          the RNG stream contract of {!flat_crafter.craft_flat}. *)
}
(** A strategy. The type parameter is the state type of the specs it
    may attack; kernels work on codes, so it is phantom, kept so that
    schedules and sweeps stay typed by their spec. *)

val name : 's t -> string

val benign : unit -> 's t
(** Faulty nodes behave exactly like correct ones. *)

val stuck : unit -> 's t
(** Crash-like: faulty nodes keep broadcasting the state they held when
    the run started (a stuck register in the circuit interpretation). *)

val random_equivocate : unit -> 's t
(** Each faulty node sends an independent random state to every recipient
    every round — the max-entropy Byzantine strategy. *)

val mimic : offset:int -> unit -> 's t
(** Each faulty node impersonates a correct node (chosen by rotating over
    correct ids with [offset]), sending that node's true current state.
    Creates plausible-but-duplicated views. When every node is faulty
    (n = f) there is nobody to impersonate: each faulty node replays its
    own state instead of crashing. The registry holds [offset = 1];
    [test_sim.ml] ("mimic copies correct nodes") and [test_flat.ml]
    build it directly. *)

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
    [delay]. The registry holds [delay = 3]; [test_sim.ml] ("negative
    delay rejected", "stale delay 0 is truthful", "delay history
    fallback") builds it with other delays. *)

val replay_correct : delay:int -> unit -> 's t
(** Replay a *correct* node's state from [delay] rounds ago: stale but
    internally consistent information. With an empty correct set (n = f),
    replays the faulty node's own old state. Same [delay] contract as
    {!stale}: [>= 0] (raises [Invalid_argument] otherwise), current state
    until history fills. The registry holds [delay = 2]; [test_sim.ml]
    ("negative delay rejected", "delay history fallback") builds it
    directly. *)

val greedy_confusion : pool:int -> unit -> 's t
(** One-step lookahead attack: for each recipient, pick from a candidate
    pool (true states of all correct nodes plus [pool] random states) the
    message that, assuming everyone else tells the truth, maximises the
    spread (number of distinct values) of next-round outputs among the
    correct nodes' truthful next outputs and the recipient's; ties go to
    the first candidate. The strongest generic strategy in the suite;
    costs (n + pool) * n probes per faulty node per round.

    Each round consumes the rng as: [pool] random states, then one
    [Stdx.Rng.split] per correct node (ascending; its truthful next
    state), then one split per (faulty sender, correct recipient,
    candidate) probe in that nesting order. Faulty recipients get the
    sender's own state and cost no draw. The flat kernel, on a private
    {!flat_env.probe_kernel}, ends in that rng state and gives each
    probe it makes the split this order names ({!Stdx.Rng.split_nth}),
    but runs candidates outside recipients: one [set] per candidate,
    whose output-only step ({!Algo.Spec.kernel.step_output}) is read
    for each correct recipient not yet given an output new to the
    baseline (the first such candidate is the best); none when the
    baseline already holds all [c] outputs.

    Raises [Invalid_argument] if [pool < 0]. *)

val standard_suite : unit -> 's t list
(** The adversaries used by tests and experiments: benign, stuck,
    random-consistent (each faulty node draws a fresh random state each
    round and sends it to everyone: non-equivocating noise),
    random_equivocate, mimic, split_brain, stale, replay_correct and
    flip-flop (each faulty node alternates between two random states
    drawn once at the start, switching every round; recipients with odd
    id see the phase inverted). (Excludes [greedy_confusion], which is run
    separately because of its cost.) *)

val hostile_suite : unit -> 's t list
(** [standard_suite] minus the strategies tagged [benign]. *)

val registry : unit -> 's t list
(** Every nameable strategy: [standard_suite () @ [greedy_confusion
    ~pool:2 ()]]. The CLI resolves [--adversary] names against it,
    chaos and hunt schedules draw from it, and hunt corpora name
    strategies by it. *)
