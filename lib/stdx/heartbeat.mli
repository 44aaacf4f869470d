(** Periodic campaign progress streamed as self-describing JSONL.

    A heartbeat appends one JSON object per line to its output channel,
    rate-limited to the configured interval, each line tagged
    [{"kind":"heartbeat"}] and carrying the progress ledger (cells
    done/total, modelled cost done/total with an ETA, rounds simulated,
    hunt hits by class), per-worker busy seconds with a utilization
    ratio, [Gc.quick_stat] gauges, and a full {!Metrics} snapshot of
    the instruments merged so far. {!finish} always emits a terminal
    line with ["final":true] — even when the run was shorter than one
    interval — whose non-wall-time fields are deterministic at any jobs
    count and claiming policy (merged instruments are counters and
    histograms, whose adds commute across completion orders).

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
    emits on every progress report). [clock] defaults to
    {!Metrics.wall_clock}; tests inject a mock to force or suppress
    beats. *)

val set_totals : t -> cells:int -> cost:float -> unit
(** Announce work: [cells] more cells totalling modelled [cost] (the
    harnesses use their [horizon × n²] cost model). Adds on repeat calls,
    so chained campaigns extend one stream. *)

val cell_done :
  ?snapshot:Metrics.snapshot -> ?rounds:int -> cost:float -> t -> unit
(** One cell finished: advance done-counters by [cost] and [rounds]
    (simulated rounds, default 0), merge the cell's private metrics
    [snapshot] into the live registry, and emit a beat if the interval
    has elapsed. *)

val hit : t -> string -> unit
(** Count one hunt hit under class [cls] (as printed by
    [Hunt.class_to_string]); may emit a beat. *)

val task_done : t -> worker:int -> busy_s:float -> unit
(** Per-worker utilization feed (the {!Pool.exec} [on_task] hook): add
    [busy_s] to [worker]'s busy total; may emit a beat. *)

val beat : t -> unit
(** Emit now if the interval has elapsed — for callers with long gaps
    between progress reports. *)

val finish : t -> unit
(** Emit the terminal ["final":true] line unconditionally and stop the
    stream. Idempotent: later calls (and later {!beat}s) do nothing, so
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
    additionally carries per-worker busy seconds, the other GC gauges
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
