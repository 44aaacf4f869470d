(** Structured round traces — the simulator's machine-readable event
    side channel.

    The engine emits a {!event} at every seam the chaos layer created
    (phase boundaries, transient corruption, detector resets, per-phase
    verdicts); the harnesses wrap each grid cell's stream in
    [Cell_start]/[Cell_end] markers and the CLI prepends one [Meta]
    event describing the algorithm under test. A trace is consumed by
    [countctl report] (per-phase recovery summary vs the Theorem 1
    bound) or by anything that can read JSONL.

    {2 Writers}

    A {!t} is a sink. {!null} (the default everywhere) is {e inert}:
    instrumented code guards every emission with one branch
    ({!seams_on}) and pays nothing else — the differential test in
    [test_telemetry.ml] checks runs are bit-identical with tracing on
    and off. Every event sits at a seam, never inside the per-round
    loop. {!memory} buffers events; {!jsonl} encodes each event as one
    JSON object per line.

    Writers are single-domain: parallel harnesses give each worker its
    own {!memory} buffer and replay the buffers into the caller's sink
    in cell-index order, so trace output is identical at any jobs
    count. *)

type event =
  | Meta of {
      label : string;
      n : int;
      f : int;
      c : int;
      time_bound : int option;
          (** the planner's Theorem 1 stabilisation-time bound, when the
              producer knows it *)
    }
  | Cell_start of { cell : int; label : string }
      (** start of one harness grid cell's event stream *)
  | Phase_start of {
      round : int;
      phase : int;
      adversary : string;
      faulty : int list;
    }
  | Corruption of {
      round : int;
      phase : int;
      requested : int;  (** victims the schedule asked for *)
      victims : int list;
    }
      (** transient event: [victims] are the corrupted node ids; fewer
          than [requested] (down to none) when the schedule asked for
          more victims than there are correct nodes — such clamped
          events also bump the [engine.clamped_events] metric *)
  | Detector_reset of { round : int; phase : int }
  | Verdict of {
      round : int;  (** the phase's [end_round] *)
      phase : int;
      stabilized : int option;  (** [Stabilized s] as [Some s] *)
      recovery : int option;
    }
  | Hunt_trial of {
      trial : int;
      seed : int;  (** the trial's schedule-generation seed *)
      score : float;  (** scalar badness ([Hunt.score]) of the schedule *)
      hit : bool;
    }
      (** one fuzzer trial evaluated by {!Hunt} — the campaign-level
          stream (engine seams of the inner runs are not re-emitted) *)
  | Hunt_shrink of {
      trial : int;
      steps : int;  (** shrink candidates executed *)
      kept : int;  (** candidates accepted (the greedy path length) *)
      size : int;  (** [Schedule.size] of the final reproducer *)
      score : float;
    }
      (** shrink summary for a hit, emitted after its trial's
          [Hunt_trial] *)
  | Span of { name : string; count : int; wall_s : float }
      (** aggregated timing span ([Stdx.Span]): [count] timed
          occurrences totalling [wall_s] seconds under [name]. Emitted
          at cell end (engine craft/step/detect totals) and after each
          pool drain (per-worker claim/busy/idle); a wall-clock
          instrument, so the determinism tests zero [wall_s] like
          [Cell_end] *)
  | Cell_end of { cell : int; wall_s : float }

type t

val null : t
val memory : unit -> t
(** Unbounded buffering sink. *)

val jsonl : out_channel -> t
(** One JSON object per line on [oc]. The caller closes the channel. *)

val seams_on : t -> bool
(** [false] only for {!null} — the emission guard. *)

val emit : t -> event -> unit
(** Record one event; a no-op on {!null}. Producers guard with
    {!seams_on} so the off path is one branch. *)

val events : t -> event list
(** Contents of a {!memory} sink, oldest first; [[]] for other sinks. *)

(** {2 JSONL codec} *)

val to_json : event -> string
(** Single-line JSON encoding (jsonlint-compatible, round-trips through
    {!of_json} exactly). The [jsonl] writer emits it; outside this
    module only tests call it, with {!of_json} (see there). *)

val of_json : string -> (event, string) result
(** Parse one line as emitted by {!to_json} / the [jsonl] writer.
    {!parse_jsonl} reads every line through it. Outside this module
    only tests call the pair, as the oracle of the trace format:
    [test_telemetry.ml] ("jsonl round trip (all variants)" and its
    qcheck twin) and [test_flat.ml] round-trip every event through
    it. *)

val parse_jsonl : string -> (event list, string) result
(** Parse a whole JSONL text, split into lines by {!Stdx.Json.lines};
    the error carries the offending line number, as [line N: ...]. *)
