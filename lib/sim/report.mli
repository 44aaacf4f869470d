(** Offline analysis of a {!Trace} stream: each phase's recovery
    against the planner's Theorem 1 bound, the corruption timeline, the
    span and hunt tallies, and the per-cell walls. [countctl report]
    renders a {!t} as tables, or prints {!to_json}. *)

type meta =
  { label : string; n : int; f : int; c : int; time_bound : int option }

type corruption =
  { cell : int; round : int; phase : int; requested : int; victims : int list }

type cell = { cell : int; label : string; wall_s : float }

type t = {
  metas : meta list;  (** the [Meta] headers, in trace order *)
  bound : int option;  (** the last bound a [Meta] gave *)
  phases : (int * Engine.phase_report) list;
      (** [(cell, report)] in trace order (cell 0 before any
          [Cell_start]), each rebuilt from its [Phase_start],
          [Corruption]s and [Verdict]: [perturbations] is 1 plus the
          phase's corruptions, [last_perturbation] the last one's round
          or the phase start. With no [Verdict] a phase is
          [Not_stabilized] and ends at the next [Phase_start], or at
          [-1] if its cell or the trace ends first. *)
  corruptions : corruption list;  (** trace order *)
  spans : (string * (int * float)) list;
      (** summed [(count, wall_s)] per span name, sorted by name *)
  trials : int;  (** hunt trials, then the hunt's tallies *)
  hits : int;
  shrink_steps : int;
  shrink_kept : int;
  worst_score : float;  (** [neg_infinity] until a trial scores above it *)
  cells : cell list;
      (** one per [Cell_end], slowest first (ties: later first), with
          the cell's last [Cell_start] label or [""] *)
  recovered : int;  (** phases with a recovery *)
  exceeded : int;  (** recoveries above [bound] *)
  worst_recovery : int;  (** 0 without recoveries *)
}

val analyse : Trace.event list -> t
(** Total: no event order or truncation makes it raise. *)

val to_json : t -> string
(** One jsonlint-clean JSON object of kind ["report"], on one line. *)
