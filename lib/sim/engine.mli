(** Streaming simulation engine — the hot path behind every sweep.

    Simulates the same synchronous broadcast-round model as
    {!Network.run}, but keeps only the live O(n) state vector plus a
    bounded sliding window of recent output rows, detects stabilisation
    {e online} with {!Online}, and (in {!Streaming} mode) {b early-exits}
    as soon as the clean counting suffix reaches [min_suffix] — typically
    cutting long-horizon sweeps by an order of magnitude.

    {2 Flat fast path}

    When the spec carries a {!Algo.Spec.codec} — every built-in family
    does — the engine keeps the state vector as a packed {!Statebuf.t}
    (one byte per node for small state spaces, an unboxed int bigarray
    otherwise) and advances rounds through the codec's kernel: counting
    passes over int arrays, double-buffered, with no per-node allocation
    in the steady state.

    Adversaries run flat too: each phase crafts message {e codes}
    through its strategy's {!Adversary.flat_crafter} straight into a
    preallocated scratch matrix — no boxed mirror, no per-round message
    matrix, zero decode/encode in the hostile hot loop. Each state
    representation has exactly one crafting path: the flat one always
    steps the phase's flat kernel, the boxed one always calls the
    phase's boxed crafter. On hostile rounds the engine additionally
    visits recipients grouped by identical crafted columns, which keeps
    received-vector caches inside counting kernels hot under
    equivocating adversaries — sound because every node owns its
    private RNG stream.

    The flat path is {e bit-identical} to the boxed
    path — same RNG stream consumption, same verdicts, rounds, phase
    reports, final states and trace events (certified by the
    differential suites in [test_chaos.ml] and [test_flat.ml], which
    also step every flat kernel in lockstep with its boxed twin).
    The boxed path stays for two cases the flat one cannot serve:
    specs without a codec (a boost tower whose state codes pass 63
    bits, e.g. five levels, has none) and runs with an ['s]-typed
    [probe]/[trace] hook, which needs real state vectors every round.
    It is also the differential reference; to force it, strip the
    codec: [{ spec with codec = None }]. The [metrics] sink counts
    flat runs as [engine.flat_runs].

    {2 Verdict equivalence}

    The RNG stream layout is byte-identical to {!Network.run} (which is
    itself a thin wrapper over this engine), so for a given
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
      holds for every algorithm/adversary pair in this repository's
      suites (enforced by the differential test in [test_sim.ml] and the
      parity check in [bench sweep]). [min_suffix] is exactly the
      caller's evidence threshold: demanding more post-exit scrutiny
      means asking for a larger [min_suffix].

    To force full-trace behaviour, pass [~mode:Full_horizon] (same memory
    profile, no early exit) or use {!Network.run} when the whole
    state/output trace is needed (probes, figures, the model checker). *)

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

type 's schedule_outcome = {
  phases : phase_report list;  (** one report per phase, in order *)
  verdict : Online.verdict;  (** the final phase's verdict *)
  rounds_simulated : int;
  early_exit : bool;
  horizon : int;  (** [Schedule.total_rounds] *)
  final_states : 's array;
  recent_outputs : (int * int array) list;
  messages_per_round : int;
  bits_per_round : int;
}

type 's outcome = {
  verdict : Online.verdict;
  rounds_simulated : int;
      (** transition steps actually executed; output rows
          [0 .. rounds_simulated] were observed. Equals [horizon] unless
          the run early-exited. *)
  early_exit : bool;  (** stopped before the horizon *)
  horizon : int;  (** the requested [rounds] *)
  final_states : 's array;  (** live state vector at the last round *)
  recent_outputs : (int * int array) list;
      (** sliding window of the last [(round, outputs)] rows, oldest
          first *)
  faulty : int array;  (** validated, sorted faulty ids *)
  messages_per_round : int;
  bits_per_round : int;
}

val run :
  ?probe:(round:int -> states:'s array -> unit) ->
  ?trace:(round:int -> states:'s array -> outputs:int array -> unit) ->
  ?tracer:Trace.t ->
  ?metrics:Stdx.Metrics.t ->
  ?spans:Stdx.Span.t ->
  ?init:'s array ->
  ?mode:mode ->
  ?min_suffix:int ->
  ?window:int ->
  spec:'s Algo.Spec.t ->
  adversary:'s Adversary.t ->
  faulty:int list ->
  rounds:int ->
  seed:int ->
  unit ->
  's outcome
(** Simulate up to [rounds] rounds, early-exiting in {!Streaming} mode
    (the default). [min_suffix] — explicit or defaulted — is resolved by
    {!Min_suffix.clamp}, the same arithmetic contract the {!Harness}
    sweeps enforce: default [max (2*c) 16], capped by [rounds / 4],
    floored at [c]. (Sweeps additionally reject [rounds < c]; see
    {!Min_suffix}.)
    [probe] sees the start-of-round states of every simulated round
    (including round 0); [trace] additionally receives the output row and
    is how {!Network.run} materialises full traces. [window] bounds
    [recent_outputs] (default 8).

    [tracer] (default {!Trace.null}) receives structured {!Trace.event}s
    at the chaos seams — plus one [Round] event per simulated round when
    its level is [Rounds]; [metrics] receives the engine counters
    ([engine.runs]/[engine.rounds]/[engine.messages]/…) and the
    [engine.recovery_rounds] histogram, flushed once when the run ends.
    Neither consumes randomness or changes the execution: the run is
    bit-identical with them on or off (differential test in
    [test_telemetry.ml]).

    [spans] (default {!Stdx.Span.disabled}) attributes the run's time to
    [engine.craft] (adversary message crafting), [engine.step] (state
    blit + kernel transitions) and [engine.detect] (output row +
    {!Online} observation), recorded once when the run ends. To keep the
    flat hot loop within the observability overhead budget only every
    16th round is clock-sampled and the totals scaled back up; the
    sampled count is reported as [count] on each span and as the
    [engine.sampled_rounds] counter (deterministic — it depends only on
    rounds simulated). Spans are as inert as [tracer]/[metrics]: same
    differential certification, wall-clock values excepted.

    Raises [Invalid_argument] on invalid faulty sets or [init] length,
    like {!Network.run}. *)

val run_schedule :
  ?probe:(round:int -> states:'s array -> unit) ->
  ?trace:(round:int -> states:'s array -> outputs:int array -> unit) ->
  ?tracer:Trace.t ->
  ?metrics:Stdx.Metrics.t ->
  ?spans:Stdx.Span.t ->
  ?init:'s array ->
  ?mode:mode ->
  ?min_suffix:int ->
  ?window:int ->
  spec:'s Algo.Spec.t ->
  schedule:'s Schedule.t ->
  seed:int ->
  unit ->
  's schedule_outcome
(** Execute a time-varying fault {!Schedule}: at every phase boundary the
    faulty set is re-validated, the incoming adversary gets a fresh
    crafter, and the {!Online} detector is reset (with the new correct
    set); each transient event corrupts up to [victims] correct nodes'
    states to spec-random values before that round's row is observed
    (traces keep pre-event rows — the corruption happens on a copy).
    Every perturbation restarts the recovery clock, so each
    {!phase_report} carries the phase's own re-stabilisation verdict and
    recovery time rather than one global verdict.

    [min_suffix] is clamped against the schedule's total horizon.
    {!Streaming} mode early-exits only once the final phase has
    re-stabilised and no events remain — earlier phases always run to
    their boundary so every report is over the phase's full duration.

    The RNG stream layout extends {!run}'s with one extra corruption
    stream, split after the per-node streams: a single-phase, no-event
    schedule is therefore the {e same execution} as the static {!run}
    with the same [(spec, adversary, faulty, rounds, seed)] — identical
    verdict, [rounds_simulated] and final states (enforced by a
    differential test). Raises [Invalid_argument] on invalid schedules
    ({!Schedule.validate}) or [init] length. *)

