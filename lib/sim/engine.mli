(** Streaming simulation engine — the hot path behind every sweep, and
    the one way to run an execution.

    Simulates the synchronous broadcast-round model of Section 2 over a
    fault {!Schedule}: the paper's setting — one faulty set, arbitrary
    initial states, a fixed horizon — is the one-phase, event-free
    {!Schedule.static}. It keeps only the live O(n) state vector plus a
    bounded sliding window of recent output rows, detects stabilisation
    {e online} with {!Online}, and (in {!Streaming} mode) {b early-exits}
    as soon as the clean counting suffix reaches [min_suffix] — typically
    cutting long-horizon sweeps by an order of magnitude.

    {2 One representation: packed state codes}

    The engine requires the spec's {!Algo.Spec.codec} — every built-in
    family has one. It keeps the state vector as an [int array] of codes
    and advances rounds through the codec's kernel: counting passes over
    int arrays, double-buffered, with no per-node allocation in the
    steady state. A spec without a codec — a boost tower whose
    state codes would pass 62 bits, e.g. five levels — is rejected with
    [Invalid_argument] naming the spec and its [state_bits].

    Adversaries run in code space too: each phase crafts message codes
    through its strategy's {!Adversary.flat_crafter} straight into a
    preallocated scratch matrix — no per-round message matrix, zero
    decode/encode in the hostile hot loop. The kernel is told what it
    receives through {!Algo.Spec.kernel}'s protocol: the round's true
    states, with the faulty slots as the first visited recipient gets
    them, are [load]ed once, and per later recipient only the faulty
    slots whose crafted code differs from the previous recipient's are
    [set]. A round whose crafter declares every row one code for all
    recipients ({!Adversary.flat_crafter}) costs one crafted slot per
    faulty node: recipients are stepped in index order with no [set]
    and no per-recipient compare. On other rounds the engine visits
    recipients grouped by identical crafted columns, so equivocating
    adversaries cost one batch of [set]s per distinct column, not per
    recipient — sound because every node owns its private RNG stream.

    States are decoded only where ['s] values are asked for: the
    [final_states] of the outcome, and the rows handed to the [trace]
    hook — decoded once per round, after that round's events, into a
    fresh array the hook may keep.

    The test suite certifies the engine against a slow boxed reference
    simulator ([test/reference.ml]): same RNG stream consumption, and
    every round's decoded states and output rows equal to the
    reference's ([test_flat.ml]), which also steps every adversary
    kernel in lockstep with its boxed twin.

    {2 Verdict equivalence}

    {!Network.run} is a thin wrapper over this engine (a static
    schedule, the [trace] hook, {!Full_horizon}), so for a given
    [(spec, adversary, faulty, rounds, seed)] the streamed execution and
    the full-trace execution are the same run.

    - In {!Full_horizon} mode the returned verdict is {e always}
      identical to [Stabilise.of_run ~min_suffix] on the corresponding
      full trace (the online detector is an exact incremental version of
      the offline backwards walk).
    - In {!Streaming} mode the engine stops at the first round whose
      truncated trace the offline checker would already call
      [Stabilized]: the verdict equals the offline verdict on the
      truncated trace by construction, and equals the full-horizon
      verdict whenever the run stays clean after the exit point — which
      holds for every broadcast algorithm/adversary pair in this
      repository's suites (enforced by the differential test in
      [test_sim.ml] and the parity check in [bench sweep]). The sampled
      pulling counters keep a residual per-round failure probability
      (Theorem 4), so a run may break after its exit; the same test
      checks their streamed verdict against the trace cut at the exit.
      [min_suffix] is exactly the caller's evidence threshold:
      demanding more post-exit scrutiny means asking for a larger
      [min_suffix].

    To force full-trace behaviour, pass [~mode:Full_horizon] (same memory
    profile, no early exit) or use {!Network.run} when the whole
    state/output trace is needed (lemma probes, figures, the model
    checker). *)

type mode =
  | Streaming  (** early-exit once the verdict is [Stabilized] *)
  | Full_horizon  (** always simulate the whole horizon *)

type phase_report = {
  phase : int;  (** index into the schedule's phase list *)
  adversary : string;
  faulty : int list;  (** validated, sorted faulty ids of this phase *)
  start_round : int;
  end_round : int;
      (** the round at which the phase ended: [start_round + duration]
          for phases that ran to their boundary, [rounds_simulated] for
          the final phase (less than the boundary iff the run
          early-exited). Output rows [start_round, end_round) were
          observed under this phase — plus the boundary row itself for
          the final phase. *)
  perturbations : int;
      (** perturbations absorbed: 1 for the phase entry itself (inherited
          arbitrary states) plus one per transient event in the phase *)
  last_perturbation : int;
      (** round of the last perturbation — the reference point of
          [recovery] *)
  verdict : Online.verdict;
      (** re-stabilisation verdict over this phase's own rows only: the
          detector is reset at every perturbation, so [Stabilized s]
          certifies a clean counting suffix starting at [s >=
          last_perturbation] with at least [min_suffix] clean steps
          observed {e before the phase ended} *)
  recovery : int option;
      (** rounds from the last perturbation to stable counting,
          [s - last_perturbation]; [None] iff the phase did not
          re-stabilise within its duration *)
}

type 's outcome = {
  phases : phase_report list;  (** one report per phase, in order *)
  verdict : Online.verdict;  (** the final phase's verdict *)
  rounds_simulated : int;
      (** transition steps actually executed; output rows
          [0 .. rounds_simulated] were observed. Equals [horizon] unless
          the run early-exited. *)
  early_exit : bool;  (** stopped before the horizon *)
  horizon : int;  (** [Schedule.total_rounds] *)
  final_states : 's array;  (** live state vector at the last round *)
  recent_outputs : (int * int array) list;
      (** sliding window of the last 8 [(round, outputs)] rows, oldest
          first *)
  messages_per_round : int;
  bits_per_round : int;
}

val run :
  ?trace:(round:int -> states:'s array -> outputs:int array -> unit) ->
  ?tracer:Trace.t ->
  ?metrics:Stdx.Metrics.t ->
  ?spans:Stdx.Span.t ->
  ?init:'s array ->
  ?mode:mode ->
  ?min_suffix:int ->
  spec:'s Algo.Spec.t ->
  schedule:'s Schedule.t ->
  seed:int ->
  unit ->
  's outcome
(** Execute a fault {!Schedule} for up to its total horizon,
    early-exiting in {!Streaming} mode (the default). At every phase
    boundary the faulty set is re-validated, the incoming adversary gets
    a fresh crafter, and the {!Online} detector is reset (with the new
    correct set); each transient event corrupts up to [victims] correct
    nodes' states to spec-random values before that round's row is
    observed. Every perturbation restarts the recovery clock, so each
    {!phase_report} carries the phase's own re-stabilisation verdict and
    recovery time. {!Streaming} mode early-exits only once the final
    phase has re-stabilised and no events remain — earlier phases always
    run to their boundary so every report is over the phase's full
    duration.

    [min_suffix] — explicit or defaulted — is resolved against the
    schedule's total horizon by {!Min_suffix.clamp}, the same arithmetic
    contract the {!Harness} sweeps enforce: default [max (2*c) 16],
    capped by [rounds / 4], floored at [c]. (Sweeps additionally reject
    [rounds < c]; see {!Min_suffix}.)

    [trace] is the one per-round hook: it sees the start-of-round states
    and the output row of every simulated round, including round 0,
    after that round's corruption events. Every call gets freshly
    decoded arrays that the hook may keep — a later event never writes
    into a row already handed over — at the cost of one decode per node
    per round; {!Network.run} materialises full traces through it.

    [tracer] (default {!Trace.null}) receives structured {!Trace.event}s
    at the chaos seams; [metrics] receives the engine counters
    ([engine.runs]/[engine.rounds]/[engine.messages]/…) and the
    [engine.recovery_rounds] histogram in one registry update when the
    run ends ({!Stdx.Metrics.record}): its cost does not grow with the
    instrument count.
    Neither consumes randomness or changes the execution: the run is
    bit-identical with them on or off (differential test in
    [test_telemetry.ml]).

    [spans] (default {!Stdx.Span.disabled}) attributes the run's time to
    [engine.craft] (adversary message crafting), [engine.step] (state
    blit + kernel transitions) and [engine.detect] (output row +
    {!Online} observation), recorded once when the run ends. To keep the
    flat hot loop within the observability overhead budget only every
    16th round from round 15 is clock-sampled (never the cold round 0),
    and each total is scaled by its loop's iterations over its sampled
    ones; the sampled count is reported as
    [count] on each span and, for observed rounds, as the
    [engine.sampled_rounds] counter (deterministic — it depends only on
    rounds simulated). Spans are as inert as [tracer]/[metrics]: same
    differential certification, wall-clock values excepted.

    The RNG stream layout is init, adversary, one stream per node, then
    one corruption stream; the boxed reference in [test/reference.ml]
    draws in the same order. Raises [Invalid_argument] on invalid
    schedules ({!Schedule.validate}) or faulty sets, [init] length, or a
    spec without a codec (the message names the spec and its
    [state_bits]). *)
