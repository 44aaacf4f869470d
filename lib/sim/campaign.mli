(** The one campaign driver: every grid of independent engine runs —
    {!Harness.run} sweeps, {!Harness.Chaos} campaigns and corpus
    replays, {!Hunt} trials and [countctl run] seeds — executes through
    {!exec}. A caller builds its grid, writes the per-cell function and
    aggregates the results; {!exec} owns everything in between:

    - the claim order: cost-sorted (LPT) under the [horizon × n²] cost
      model ({!cell_cost}) when the horizons are {!Known}, index order
      when each cell reports its own ({!Of_result});
    - per-cell private sinks (a metrics registry, a memory trace, a span
      context), created only when a caller-side sink asks for them;
    - the deterministic merge into the caller's sinks (below);
    - the heartbeat: totals up front, one [cell_done] per finished cell
      with its worker's task wall;
    - all campaign timing: {!Stdx.Pool} reads no clock. Per task, the
      clock is read at the start, after [run_cell] (the cell wall, for
      [<prefix>.cell_wall_s] and [Cell_end]) and at the end (the task
      wall): at most three reads per cell, each only when a sink takes
      it, none without a sink. Per worker, [busy] sums its task walls,
      [claim] the gaps between one of its tasks and its next, and
      [idle] is the rest of the drain's wall. They become the
      per-worker [pool.worker_busy_s] / [pool.worker_claim_s] /
      [pool.worker_idle_s] histograms (one sample per worker, recorded
      also when a cell raises) and, with [spans] and a trace, the
      drain-level [pool.busy] / [pool.claim] / [pool.idle] span triple
      after the cell streams (count = worker count).

    The merge: a finished cell hands its whole private registry, its
    trace stream (bracketed by [Cell_start]/[Cell_end]) and its
    [<prefix>.cell_wall_s] sample to a window, where it waits until
    every lower-indexed cell has been merged; the worker that completes
    a run of ready cells merges them, each registry added into the
    caller's and the heartbeat's ({!Stdx.Metrics.add}, then cleared and
    kept for that worker's next cell). The caller's registry, the
    heartbeat's and the trace therefore each hold exactly the cells
    merged so far, in cell-index order: the registries equal the
    index-order merge of whole snapshots bit for bit, and the trace is
    written in cell-index order as the campaign runs. The window holds
    only cells that finished while a lower-indexed cell was still
    unfinished, each with its registry: none at one job with index-order
    claims; with index-order claims at [jobs] > 1, the cells the other
    workers finish while the oldest running cell runs; under cost-sorted
    claims, up to every cell but one (cells claimed and finished in
    reverse index order all wait for cell 0). The returned array holds
    only the cells' values.

    When a cell raises, {!exec} re-raises the exception of the lowest
    failing index once the pool has drained. By then the cells below it
    have been merged in full — their registries, trace streams and
    wall samples — and nothing of it or of the cells above it is in the
    registries or the trace: the merged cells only. A merge that raises
    (a kind clash between two cells' instruments, which leaves the
    registries and the trace without that cell, or an unwritable trace)
    stops the merging at its cell and is re-raised after the drain when
    no cell failed.

    Each cell must be fully keyed by its index (all randomness derived
    from its own inputs), so results and all non-wall-clock telemetry
    are identical at any [jobs] count. *)

val cell_cost : n:int -> int -> float
(** [cell_cost ~n horizon] — the campaign cost model, [horizon × n²]:
    one all-to-all message round per simulated round. *)

(** Where a cell's round budget comes from: it prices the cell for
    claiming and for the heartbeat's cost ledger. *)
type 'a horizon =
  | Known of (int -> int)
      (** cell [i]'s horizon, known before the pool starts: cells are
          priced up front and claimed longest first (LPT) *)
  | Of_result of ('a -> int)
      (** read off a cell's value: for grids that build a cell's input
          inside the cell, such as {!Hunt} trials. Cells are claimed in
          index order, and each one's cost is added to the heartbeat's
          total when it finishes. *)

(** The private sinks one cell runs with. With no caller-side sink they
    are [None], {!Trace.null} and {!Stdx.Span.disabled}: the inert path. *)
type cell = {
  metrics : Stdx.Metrics.t option;
      (** present when the caller passed [metrics] or [heartbeat];
          merged into [metrics] and fed to the heartbeat. The domain
          running the cell reuses it, cleared, for its next cell. *)
  tracer : Trace.t;  (** a memory buffer when the caller traces *)
  spans : Stdx.Span.t;
      (** records into [metrics] when present and mirrors each
          recording as a {!Trace.Span} event on [tracer] *)
}

val exec :
  ?metrics:Stdx.Metrics.t ->
  ?trace:Trace.t ->
  ?spans:bool ->
  ?heartbeat:Stdx.Heartbeat.t ->
  jobs:int ->
  prefix:string ->
  n:int ->
  horizon:'a horizon ->
  label:(int -> string) ->
  int ->
  (cell -> int -> 'a * int) ->
  'a array
(** [exec ~jobs ~prefix ~n ~horizon ~label cells run_cell] runs
    [run_cell cell i] for every [i < cells] on [jobs] domains and
    returns the results in index order. [run_cell] returns its result
    and the number of rounds it simulated (the heartbeat's [rounds]).

    [horizon] gives each cell's round budget and [n] is the spec's node
    count: together they price the cell for claiming and the heartbeat.
    [label i] names the cell in its [Cell_start] event. [metrics]
    receives [<prefix>.cells] (one per cell) and the
    [<prefix>.cell_wall_s] histogram (one sample per cell) on top of
    the merged cell registries. [spans] (default [false]) gives every
    cell a live span context. The caller owns the heartbeat's terminal
    line ({!Stdx.Heartbeat.finish}). *)
