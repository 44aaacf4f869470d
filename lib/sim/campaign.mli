(** The one campaign driver: every grid of independent engine runs —
    {!Harness.run} sweeps, {!Harness.Chaos} campaigns and corpus
    replays, {!Hunt} trials and [countctl run] seeds — executes through
    {!exec}. A caller builds its grid, writes the per-cell function and
    aggregates the results; {!exec} owns everything in between:

    - the claim order: cost-sorted (LPT) under the [horizon × n²] cost
      model ({!cell_cost});
    - per-cell private sinks (a metrics registry, a memory trace, a span
      context), created only when a caller-side sink asks for them;
    - cell timing, the deterministic merge into the caller's sinks
      (below), and the drain-level [pool.busy] / [pool.claim] /
      [pool.idle] span triple after the cell streams;
    - the heartbeat: totals up front, one [cell_done] per finished cell,
      per-worker utilization from the pool's [on_task] hook;
    - the per-worker [pool.worker_busy_s] / [pool.worker_claim_s] /
      [pool.worker_idle_s] histograms.

    The merge: a finished cell's counters and histogram counts are
    added into the caller's registry (and the heartbeat's) inside its
    pool task ({!Stdx.Metrics.merge_counts}); the cell keeps only its
    histogram sums and gauges ({!Stdx.Metrics.ordered}), which are
    applied in cell-index order after the pool drains, together with
    the trace streams (each bracketed by [Cell_start]/[Cell_end]). The
    registry therefore equals the index-order merge of whole snapshots
    bit for bit, while a campaign holds a few words per cell instead of
    a snapshot. A bucket-layout or kind clash raises [Invalid_argument]
    out of {!exec}; cells that finished before it have then already
    added their counts.

    Each cell must be fully keyed by its index (all randomness derived
    from its own inputs), so results and all non-wall-clock telemetry
    are identical at any [jobs] count. *)

val cell_cost : n:int -> int -> float
(** [cell_cost ~n horizon] — the campaign cost model, [horizon × n²]:
    one all-to-all message round per simulated round. *)

(** The private sinks one cell runs with. With no caller-side sink they
    are [None], {!Trace.null} and {!Stdx.Span.disabled}: the inert path. *)
type cell = {
  metrics : Stdx.Metrics.t option;
      (** present when the caller passed [metrics], [spans] or
          [heartbeat]; merged into [metrics] and fed to the heartbeat *)
  tracer : Trace.t;  (** a memory buffer when the caller traces *)
  spans : Stdx.Span.t;
      (** records into [metrics] and mirrors each recording as a
          {!Trace.Span} event on [tracer] *)
}

val exec :
  ?metrics:Stdx.Metrics.t ->
  ?trace:Trace.t ->
  ?spans:bool ->
  ?heartbeat:Stdx.Heartbeat.t ->
  jobs:int ->
  prefix:string ->
  n:int ->
  horizon:(int -> int) ->
  label:(int -> string) ->
  int ->
  (cell -> int -> 'a * int) ->
  'a array
(** [exec ~jobs ~prefix ~n ~horizon ~label cells run_cell] runs
    [run_cell cell i] for every [i < cells] on [jobs] domains and
    returns the results in index order. [run_cell] returns its result
    and the number of rounds it simulated (the heartbeat's [rounds]).

    [horizon i] is cell [i]'s round budget, [n] the spec's node count:
    together they price the cell for claiming and the heartbeat.
    [label i] names the cell in its [Cell_start] event. [metrics]
    receives [<prefix>.cells] (one per cell) and the
    [<prefix>.cell_wall_s] histogram (one sample per cell) on top of
    the merged cell registries. [spans] (default [false]) gives every
    cell a live span context. The caller owns the heartbeat's terminal
    line ({!Stdx.Heartbeat.finish}). *)
