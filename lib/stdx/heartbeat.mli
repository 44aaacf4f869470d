(** Periodic campaign progress streamed as self-describing JSONL.

    A heartbeat appends one JSON object per line to its output channel,
    rate-limited to the configured interval, each line tagged
    [{"kind":"heartbeat"}] and carrying the progress ledger (cells
    done/total, modelled cost done/total with an ETA, rounds simulated,
    hunt hits by class), per-worker busy seconds with a utilization
    ratio, [Gc.quick_stat] readings, and a full {!Metrics} snapshot of
    the cell registries merged so far. {!finish} always emits a terminal
    line with ["final":true] — even when the run was shorter than one
    interval — whose non-wall-time fields are deterministic at any jobs
    count: a campaign {!add}s each cell's registry in cell-index order,
    so the terminal registry is the index-order merge of every cell's
    registry, bit for bit. That is the campaign's [metrics] registry
    less what the campaign records outside the cells:
    [<prefix>.cells], [<prefix>.cell_wall_s] and the
    [pool.worker_*_s] histograms (test_campaign.ml, "the heartbeat's
    registry is the caller's less the campaign's own rows"). At more
    than one job, a live line may lag its done-counters by the cells
    that finished ahead of a lower-indexed one.

    All operations are mutex-protected; pool workers may report
    concurrently. The heartbeat never touches RNG streams or outcomes —
    it is certified inert alongside spans (see DESIGN.md, "Live
    observability"). *)

type t

val create :
  ?clock:(unit -> float) ->
  ?label:string ->
  interval_s:float ->
  out:out_channel ->
  unit ->
  t
(** A heartbeat writing to [out] (owned by the caller; every line is
    flushed) at most once per [interval_s] seconds (finite, [>= 0]; [0]
    emits on every {!cell_done}). [clock] defaults to
    {!Metrics.wall_clock}; tests inject a mock. The heartbeat reads it
    here and in {!finish} only: a beat is timed by the [now] its
    {!cell_done} carries. *)

val set_totals : t -> cells:int -> cost:float -> unit
(** Announce work: [cells] more cells totalling modelled [cost] (the
    harnesses use their [horizon × n²] cost model). Adds on repeat calls,
    so chained campaigns extend one stream. Cells priced only as they
    finish (hunt trials) are announced with cost [0.] and add their cost
    with [~cells:0] when done; while no announced cost remains undone,
    the ETA extrapolates the cell count instead of the cost. *)

val cell_done :
  ?rounds:int ->
  worker:int ->
  busy_s:float ->
  now:float ->
  cost:float ->
  t ->
  unit
(** One cell finished on [worker] after [busy_s] seconds of its task:
    advance the done-counters by [cost] and [rounds] (simulated rounds,
    default 0), add [busy_s] to the worker's busy total, and emit a beat
    if the interval has elapsed by [now], the caller's clock reading at
    the task's end. The only call that beats. *)

val add : t -> Metrics.t -> unit
(** Merge one finished cell's private registry into the live registry
    ({!Metrics.add}). A campaign calls it per cell in cell-index order,
    each cell once every lower-indexed cell has been added, and a cell
    merged at once is added before its {!cell_done}, so a beat that the
    cell triggers shows it. It never emits a beat. *)

val hit : t -> string -> unit
(** Count one hunt hit under class [cls] (as printed by
    [Hunt.cls_to_string]); the next beat shows it. *)

val finish : t -> unit
(** Emit the terminal ["final":true] line unconditionally and stop the
    stream. Idempotent: later calls (and later feeds) emit nothing, so
    both a harness and its CLI wrapper may call it. *)

(** {2 Reading a stream}

    What [countctl watch] and [countctl report] render. Every reader
    returns errors instead of raising. *)

type view = {
  label : string;
  seq : int;
  final : bool;
  t_s : float;  (** seconds since the heartbeat was created *)
  eta_s : float option;
  cells_done : int;
  cells_total : int;
  cost_done : float;
  cost_total : float;
  rounds : int;
  hits : (string * int) list;  (** hunt hits by class *)
  workers : int;
  utilization : float;
  heap_words : int;
}
(** The fields of one line that the human renderings use; the line
    additionally carries per-worker busy seconds, the other GC readings
    and a whole metrics snapshot. *)

val complete_lines : string -> (int * string) list
(** The newline-terminated, non-blank lines of a file's content, each
    with its 1-based line number (blank lines still count). A last line
    without its newline — a beat mid-write — is left out, to be picked
    up whole on the next read. *)

val is_heartbeat_line : string -> bool
(** The line is a JSON object tagged [{"kind":"heartbeat"}]. *)

val view_of_line : string -> (view, string) result

val latest : path:string -> string -> (string * view, string) result
(** The last complete line of a stream's content, raw and parsed. The
    error names [path], and the line number when that line does not
    parse. *)
