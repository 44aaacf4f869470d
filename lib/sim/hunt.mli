(** Adversarial schedule hunter — seed-replayable fuzzing over the chaos
    layer's {!Schedule}s, with QuickCheck-style shrinking and a JSONL
    regression corpus.

    A hunt is a grid of {e trials}. Each trial derives two seeds from the
    hunt seed — one for {!Schedule.random}, one for a burst of structured
    {!Schedule.mutate} steps — executes the resulting schedule through
    {!Engine.run}, and scores the outcome by {!badness}:
    phases that failed to re-stabilise dominate, then the worst recovery
    time relative to the configured Theorem 1 bound, then statically
    clamped events. Trials whose badness falls in a failure {!cls} are
    {e hits}; each hit is greedily shrunk over the
    {!Schedule.size} lattice ({!Schedule.drop_phase} /
    {!Schedule.halve_duration} / {!Schedule.drop_event} /
    {!Schedule.halve_victims} / {!Schedule.drop_faulty}), keeping only
    steps that preserve the failure class, until no candidate applies or
    the shrink budget runs out.

    {2 Determinism}

    A trial is keyed by its generation and mutation seeds, drawn from
    the hunt seed {e before} the {!Stdx.Pool} starts; its schedule is
    built and shrunk inside the trial's own pool task, so a hunt is
    bit-identical (same hits, same shrunk reproducers, same corpus
    bytes) at any [jobs] count — the same contract as {!Harness}.
    Telemetry rides the per-cell sinks of {!Campaign.exec} and is
    merged in trial order as trials finish.

    {2 Memory}

    A hunt keeps two seeds and one small result per trial, the shrunk
    schedule of each hit, and the telemetry of the trials that finished
    while a lower-numbered one was still running (about [jobs] of
    them): it grows with its hits, not with the schedules it tries.

    {2 Corpus}

    Hits serialise to one self-describing JSON line each
    ({!Corpus.entry}): the schedule as plain data (adversaries by
    registry name), the seeds, the requested [min_suffix], the recorded
    badness/score and shrink statistics. {!Corpus.replay} re-executes
    entries through {!Harness.Chaos.replay} and checks each reproduces
    its recorded badness exactly — the regression gate [countctl hunt
    --replay] and the chaos corpus suite run in CI. *)

(** Lexicographic badness of one executed schedule. *)
type badness = {
  failed_phases : int;  (** phases whose report has [recovery = None] *)
  worst_ratio : float;
      (** max recovery / time-bound over recovered phases; [0.] when no
          bound was configured *)
  clamped_events : int;
      (** {!Schedule.clamped_events} — events asking for more victims
          than their phase has correct nodes *)
}

val compare_badness : badness -> badness -> int
(** Lexicographic: failed phases, then worst ratio, then clamped
    events. The hunt ranks its hits by it and {!Corpus.replay} compares
    with it; outside this module only tests call it: [test_hunt.ml]
    ("badness order and score") pins the order, and "finds and shrinks
    the over-claimed leader" compares replayed badness with it. *)

val score : badness -> float
(** Scalar rendering for traces and corpus lines:
    [failed·1e6 + ratio·1e3 + clamped]. Monotone in each component; the
    authoritative order is {!compare_badness}. *)

(** Failure class of a hit — what shrinking must preserve. A trial's
    class is the first of these, in severity order, that its badness
    meets: [Failed] if any phase failed, else [Exceeds_bound] if
    [worst_ratio > 1], else [Near_bound] if [worst_ratio >= near_bound],
    else [Clamped] if any event is clamped; a trial meeting none is not
    a hit. *)
type cls =
  | Failed  (** at least one phase did not re-stabilise *)
  | Exceeds_bound  (** recovery above the configured bound *)
  | Near_bound  (** recovery at or above [near_bound] of the bound *)
  | Clamped  (** schedule contains statically clamped events *)

val cls_to_string : cls -> string
(** ["failed"] / ["exceeds-bound"] / ["near-bound"] / ["clamped"] — the
    corpus encoding. *)

val shrink :
  eval:('s Schedule.t -> badness) ->
  near_bound:float ->
  cls:cls ->
  margin:int ->
  min_duration:int ->
  budget:int ->
  's Schedule.t ->
  badness ->
  's Schedule.t * badness * int * int
(** [shrink ~eval ~near_bound ~cls ~margin ~min_duration ~budget s b]
    greedily shrinks a hit [s] of badness [b] and class [cls]: it scans
    the shrink frontier of the current schedule in step order (dropped
    phases, halved durations floored at [min_duration] with events kept
    [margin] rounds clear of phase ends, dropped events, halved victim
    counts, dropped faulty ids; each strictly smaller under
    {!Schedule.size}), scores each candidate with [eval], and restarts
    from the first one that still classifies as [cls]. Candidates are
    not validated here: [eval] (the hunt's engine run) validates each
    one once, and a candidate it rejects with {!Schedule.validate}'s
    [Invalid_argument] is skipped and free. At most [budget] candidates
    are scored. Returns the reproducer, its badness, the candidates
    scored and the steps kept. Outside this module only tests call it:
    [test_hunt.ml] ("shrink candidates validate and strictly shrink", a
    qcheck property over the frontier; "rejected candidates are free"). *)

(** Hunt configuration; build from {!Config.default} with the [with_*]
    builders, like {!Harness.Config}. *)
module Config : sig
  type t = {
    trials : int;  (** fuzzing trials; default 64 *)
    phases : int;  (** phases per generated schedule; default 3 *)
    phase_rounds : int;  (** base phase duration, as in {!Schedule.random};
                             default 400 *)
    events : int;  (** transient corruptions per schedule; default 2 *)
    max_victims : int;  (** victims per event; default 2 *)
    mutations : int;
        (** each trial applies [0 .. mutations] {!Schedule.mutate} steps
            (count drawn from the trial's mutation seed); default 2 *)
    seed : int;  (** the hunt seed — all trial seeds derive from it;
                     default 1 *)
    run_seed : int;  (** engine seed shared by every execution; default 1 *)
    time_bound : int option;
        (** the Theorem 1 stabilisation bound recoveries are scored
            against; [None] disables the ratio axis (default) *)
    near_bound : float;
        (** [Near_bound] threshold as a fraction of the bound;
            default 0.9 *)
    shrink_budget : int;
        (** max candidate executions while shrinking one hit;
            default 256 *)
    min_suffix : int option;
        (** requested min-suffix for every execution; [None] = the
            {!Min_suffix} default for the spec's [c]. Also the event
            margin schedules are generated and shrunk with. *)
    jobs : int;
        (** worker domains; any value, identical hunts. Trials are
            claimed in index order: a trial's horizon is known only once
            its cell has built its schedule
            ({!Campaign.Of_result}). *)
  }

  val default : t

  val with_trials : int -> t -> t
  val with_phases : int -> t -> t
  val with_phase_rounds : int -> t -> t
  val with_events : int -> t -> t
  val with_max_victims : int -> t -> t
  val with_seed : int -> t -> t
  val with_run_seed : int -> t -> t
  val with_time_bound : int -> t -> t
  val with_min_suffix : int -> t -> t
  val with_jobs : int -> t -> t
end

(** One confirmed, shrunk reproducer. *)
type 's hit = {
  trial : int;
  gen_seed : int;  (** {!Schedule.random} seed of this trial *)
  mut_seed : int;  (** mutation-rng seed of this trial *)
  run_seed : int;
  cls : cls;
  found : badness;  (** badness of the original (unshrunk) schedule *)
  badness : badness;  (** badness of the shrunk reproducer *)
  schedule : 's Schedule.t;  (** the shrunk reproducer *)
  original_size : int;  (** {!Schedule.size} before shrinking *)
  size : int;  (** {!Schedule.size} after shrinking *)
  shrink_steps : int;  (** candidate executions spent *)
  shrink_kept : int;  (** accepted steps — the greedy path length *)
}

type 's report = {
  hits : 's hit list;  (** in trial order *)
  trials : int;
  executions : int;  (** engine executions, including shrinking *)
  min_suffix : int;  (** the {e requested} min-suffix every run used *)
  time_bound : int option;
  worst : 's hit option;
      (** max {!compare_badness} over shrunk hits; earliest trial wins
          ties *)
}

val run :
  ?metrics:Stdx.Metrics.t ->
  ?trace:Trace.t ->
  ?spans:bool ->
  ?heartbeat:Stdx.Heartbeat.t ->
  ?config:Config.t ->
  spec:'s Algo.Spec.t ->
  adversaries:'s Adversary.t list ->
  unit ->
  's report
(** Run the hunt. [adversaries] is the registry schedules draw from and
    mutate within. Raises [Invalid_argument] on [trials < 1], an empty
    adversary list, [time_bound < 1], [near_bound <= 0],
    [shrink_budget < 0] or [mutations < 0].

    [metrics] receives [hunt.schedules_tried] / [hunt.hits] /
    [hunt.shrink_steps] counters and the [hunt.badness] histogram (one
    sample per trial, of the pre-shrink score) plus the engine counters
    of every execution; [trace] receives one [Hunt_trial] event per
    trial and one [Hunt_shrink] per hit — engine seams of the inner
    runs are not re-emitted. Both are merged per-cell in trial order
    ([hunt.cell_wall_s], [hunt.cells]) and, as everywhere, inert: the
    report is bit-identical with telemetry on or off, at any [jobs].

    [spans] (default [false]) gives every trial a {!Stdx.Span.t}
    context: the engine's [engine.craft]/[engine.step]/[engine.detect]
    spans for each execution (original and shrink candidates alike),
    plus a [hunt.trial] span per trial and a [hunt.shrink] span per
    descent — all merged like the rest of the cell telemetry, with the
    drain-level [pool.*] span triple after ({!Campaign.exec}).
    [heartbeat] streams live progress: the trial count is announced up
    front, each finished trial adds its horizon×n² cost to the total
    and the done ledger (so the ETA extrapolates the trial count)
    together with its simulated rounds and merged snapshot, and every
    hit bumps the heartbeat's per-class hit tally. The caller owns the
    terminal line ({!Stdx.Heartbeat.finish}). Both are inert under the
    same differential contract. *)

(** The regression corpus: self-describing JSONL reproducers. *)
module Corpus : sig
  type 's entry = {
    label : string;  (** the spec's name *)
    n : int;
    f : int;
    c : int;
    hunt_seed : int;
    trial : int;
    run_seed : int;
    min_suffix : int;  (** the requested value, as in {!report} *)
    time_bound : int option;
    cls : cls;
    badness : badness;
    size : int;
    shrink_steps : int;
    shrink_kept : int;
    schedule : 's Schedule.t;
  }

  val of_report :
    spec:'s Algo.Spec.t -> hunt_seed:int -> 's report -> 's entry list
  (** One entry per hit, in trial order. *)

  val entry_to_json : 's entry -> string
  (** One JSON line ([jsonlint --jsonl]-clean): floats in [%.17g], the
      schedule embedded via {!Schedule.to_json}. *)

  val write : out_channel -> 's entry list -> unit
  (** One line per entry; the caller closes the channel. *)

  val read :
    adversaries:'s Adversary.t list ->
    in_channel ->
    ('s entry list, string) result
  (** Parse the rest of a corpus stream, split into lines by
      {!Stdx.Json.lines}; the error carries the offending line number,
      as [line N: ...]. *)

  val replay :
    ?metrics:Stdx.Metrics.t ->
    ?trace:Trace.t ->
    ?spans:bool ->
    ?heartbeat:Stdx.Heartbeat.t ->
    ?jobs:int ->
    spec:'s Algo.Spec.t ->
    entries:'s entry list ->
    unit ->
    ('s entry * badness * bool) list
  (** Re-execute every entry through {!Harness.Chaos.replay} (so any
      [jobs] yields identical results) and score it afresh
      against the entry's own [time_bound]. The boolean is [true] iff
      the recomputed badness equals the recorded one exactly
      ([compare_badness = 0] — score equality follows). Raises
      [Invalid_argument] if an entry's [(n, f, c)] does not match
      [spec]. *)
end
