(** Experiment sweeps: run a spec against a matrix of adversaries, fault
    sets and seeds, and aggregate stabilisation statistics. This is the
    engine behind the Table 1 / Theorem 1 measurement benches.

    Sweeps run on the streaming {!Engine} and early-exit each run as soon
    as its verdict is decided (set [Config.mode] to [Engine.Full_horizon]
    to force full-horizon simulation; verdicts are identical — see
    [engine.mli]). The grid is embarrassingly parallel: {!Config.t} has
    a [jobs] field and the runs are distributed by {!Campaign.exec}
    over a deterministic {!Stdx.Pool}. Every run derives all of its
    randomness from its own [(adversary, faulty, seed)] key, so any
    [jobs] count is outcome-for-outcome identical to [jobs = 1] — same
    order, same verdicts, same [rounds_simulated] (enforced by a test).

    Cells are claimed longest-task-first under the campaign cost model
    ({!Campaign.cell_cost}) — a cell costs its horizon times [n²].
    Within one sweep that cost is constant (LPT with equal costs claims
    in index order); chaos campaigns and hunts, whose horizons vary per
    cell, get genuine longest-task-first claiming.

    {2 The [min_suffix] contract}

    The effective [min_suffix] is resolved by {!Min_suffix.resolve}: the
    requested value (default [max (2*c) 16]) capped by [rounds / 4] but
    never below [c]. If the horizon cannot accommodate [c + 1]
    observation rounds ([rounds < c]), {!run} raises [Invalid_argument]
    instead of silently weakening the check. {!Engine.run} enforces the
    same arithmetic via {!Min_suffix.clamp}. *)

type outcome = {
  adversary : string;
  faulty : int list;
  seed : int;
  verdict : Stabilise.verdict;
  rounds_simulated : int;
      (** rounds actually executed; < horizon iff [early_exit] *)
  early_exit : bool;
  recent_outputs : (int * int array) list;
      (** the engine's last output rows ({!Engine.outcome}) when the
          run did not stabilise, for the failure report; [[]] for a
          stabilised run, so a large sweep does not hold them *)
}

type aggregate = {
  outcomes : outcome list;
  all_stabilized : bool;
  worst : int option;  (** max stabilisation time, [None] if any failure or no runs *)
  times : int list;  (** stabilisation times of the successful runs *)
  horizon : int;  (** per-run round budget of this sweep *)
  total_rounds_simulated : int;
      (** sum over runs; compare with [runs * horizon] for the early-exit
          saving *)
}

(** Sweep configuration: one record instead of five optional arguments.
    Build from {!Config.default} with the [with_*] builders:

    {[
      Harness.Config.(
        default |> with_rounds 4000 |> with_seeds [ 1; 2; 3 ]
        |> with_jobs (Stdx.Pool.recommended_jobs ()))
    ]} *)
module Config : sig
  type t = {
    fault_sets : int list list option;
        (** [None] = {!default_fault_sets} for the spec's [(n, f)] *)
    seeds : int list;  (** default [\[1..5\]] *)
    min_suffix : int option;  (** [None] = the {!Min_suffix} default *)
    mode : Engine.mode;  (** default [Engine.Streaming] *)
    rounds : int;  (** per-run horizon; default 4000 *)
    jobs : int;
        (** worker domains for the grid; default 1 (sequential). Any
            value yields identical outcomes — see {!Stdx.Pool}. *)
  }

  val default : t

  val with_fault_sets : int list list -> t -> t
  val with_seeds : int list -> t -> t
  val with_min_suffix : int -> t -> t
  val with_mode : Engine.mode -> t -> t
  val with_rounds : int -> t -> t
  val with_jobs : int -> t -> t
end

val default_fault_sets : n:int -> f:int -> int list list
(** A deterministic selection of fault sets: the empty set, [f] prefix
    nodes, [f] suffix nodes, an evenly spread set, and single-node sets.
    Exhaustive enumeration is left to the model checker. *)

val spread_fault_set : n:int -> f:int -> int list
(** [f] ids spread evenly over [\[0, n)]. *)

val run :
  ?metrics:Stdx.Metrics.t ->
  ?trace:Trace.t ->
  ?spans:bool ->
  ?heartbeat:Stdx.Heartbeat.t ->
  ?config:Config.t ->
  spec:'s Algo.Spec.t ->
  adversaries:'s Adversary.t list ->
  unit ->
  aggregate
(** Runs every (adversary, fault set, seed) combination of [config]
    (default {!Config.default}) on the streaming engine, on
    [config.jobs] domains. Outcomes are listed in grid order —
    adversaries outermost, then fault sets, then seeds — regardless of
    [jobs].

    [metrics]/[trace] turn on telemetry: every grid cell runs with a
    private registry and buffer (at [trace]'s level), and after the pool
    finishes the cells are merged into [metrics] and replayed into
    [trace] in cell-index order, each stream bracketed by
    [Cell_start]/[Cell_end] — so apart from the scheduling-dependent
    wall-clock instruments ([harness.cell_wall_s] and the per-worker
    [pool.worker_busy_s] load histogram, whose sample count is the
    actual worker count) the telemetry is identical at any [jobs] count,
    and the sweep outcomes are
    bit-identical with telemetry on or off.

    [spans] (default [false]) gives every cell a {!Stdx.Span} context:
    the engine's craft/step/detect totals land in the cell's registry
    as [span.*_s] histograms (merged like any cell metric) and — when
    tracing — as [Trace.Span] events inside the cell's stream, plus one
    [pool.busy]/[pool.claim]/[pool.idle] Span triple after the cell
    streams summarising the drain. [heartbeat] streams live progress:
    the grid's cell count and modelled cost are announced up front,
    each completed cell advances the ledger (merging its snapshot into
    the heartbeat's live registry), and each pool task feeds per-worker
    utilization. Both are certified inert — outcomes bit-identical on
    or off, and all non-wall-time output jobs/schedule-deterministic
    (differential tests in [test_obs.ml]). The caller owns the
    heartbeat's terminal line ({!Stdx.Heartbeat.finish}). *)

val pp_aggregate : Format.formatter -> aggregate -> unit

(** Chaos campaigns: random time-varying fault {!Schedule}s executed by
    {!Engine.run}, aggregating per-phase recovery times.

    A campaign is one random schedule (from schedule seeds
    [1 .. campaigns], via {!Schedule.random}) executed once per run seed.
    Everything a run needs is derived from its
    [(schedule seed, run seed)] pair before the pool starts, so — like
    {!run} — outcomes are identical at any [jobs] count, in grid order
    (campaigns outermost, then run seeds). *)
module Chaos : sig
  (** Campaign configuration; build from {!Config.default} with the
      [with_*] builders, like {!Harness.Config}. *)
  module Config : sig
    type t = {
      campaigns : int;  (** random schedules, seeds [1..campaigns]; default 5 *)
      phases : int;  (** phases per schedule; default 3 *)
      phase_rounds : int;
          (** base phase duration; each phase lasts
              [phase_rounds .. 2 * phase_rounds) rounds; default 500 *)
      events : int;  (** transient corruptions per schedule; default 2 *)
      max_victims : int;  (** nodes corrupted per event, [1..]; default 2 *)
      seeds : int list;  (** run seeds per schedule; default [\[1; 2; 3\]] *)
      min_suffix : int option;
          (** [None] = the {!Min_suffix} default, resolved per schedule
              against its own total horizon with {!Min_suffix.resolve} *)
      jobs : int;
          (** worker domains; any value, identical outcomes. Cells are
              claimed longest-first by each campaign's own total
              horizon × n² — campaign durations are random, so the LPT
              order is non-trivial here, unlike {!Harness.run}'s
              constant-cost grids. *)
    }

    val default : t

    val with_campaigns : int -> t -> t
    val with_phases : int -> t -> t
    val with_phase_rounds : int -> t -> t
    val with_events : int -> t -> t
    val with_max_victims : int -> t -> t
    val with_seeds : int list -> t -> t
    val with_min_suffix : int -> t -> t
    val with_jobs : int -> t -> t
  end

  type outcome = {
    schedule_seed : int;
    schedule : string;  (** {!Schedule.describe} of the campaign's schedule *)
    run_seed : int;
    phases : Engine.phase_report list;
    recovered : bool;  (** every phase re-stabilised *)
    worst_recovery : int option;
        (** max per-phase recovery time; [None] iff not [recovered] *)
    rounds_simulated : int;
    horizon : int;  (** the schedule's total rounds *)
  }

  type aggregate = {
    outcomes : outcome list;  (** grid order: campaigns, then run seeds *)
    all_recovered : bool;
    phase_verdicts : int;  (** total phase reports across all runs *)
    phase_failures : int;  (** phases that did not re-stabilise *)
    recoveries : int list;  (** recovery times of all recovered phases *)
    worst_recovery : int option;  (** [None] if any failure or no runs *)
    recovery_p50 : float option;
    recovery_p90 : float option;
    total_rounds_simulated : int;
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
    aggregate
  (** Run the chaos campaign grid. [adversaries] is the pool
      {!Schedule.random} draws each phase's strategy from (e.g.
      [Adversary.standard_suite ()]). Raises [Invalid_argument] on an
      empty adversary pool, [campaigns < 1], empty [seeds], or a schedule
      horizon shorter than the spec's modulus ({!Min_suffix.resolve}).

      [metrics]/[trace]/[spans]/[heartbeat] behave exactly as in
      {!Harness.run}: per-cell sinks merged/replayed in cell-index order
      ([chaos.cell_wall_s], [chaos.cells]), deterministic at any [jobs]
      count, inert for the outcomes themselves; heartbeat costs use each
      campaign's own horizon. *)

  val replay :
    ?metrics:Stdx.Metrics.t ->
    ?trace:Trace.t ->
    ?spans:bool ->
    ?heartbeat:Stdx.Heartbeat.t ->
    ?jobs:int ->
    spec:'s Algo.Spec.t ->
    entries:('s Schedule.t * int * int option) list ->
    unit ->
    aggregate
  (** Corpus mode: re-execute recorded
      [(schedule, run seed, min-suffix request)] triples — e.g. the
      reproducers of a {!Hunt} corpus — through the same pool machinery
      and aggregation as {!run}. The [schedule_seed] of each outcome is
      the entry's index in [entries] (outcomes are in entry order).
      [min_suffix] requests pass straight to {!Engine.run},
      which clamps them against each schedule's own horizon — so a
      recorded request replays to the same effective value. Runs
      stream ({!Engine.Streaming}); any [jobs] yields an identical
      aggregate. Raises [Invalid_argument] on an empty entry
      list or an entry whose schedule fails {!Schedule.validate}
      (the message carries the entry index). *)

  val pp_aggregate : Format.formatter -> aggregate -> unit
end
