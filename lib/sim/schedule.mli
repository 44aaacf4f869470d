(** Time-varying fault schedules — the chaos layer's description language.

    The paper's model fixes one faulty set and one adversary for the
    whole run ({!static}). A {e schedule} generalises it to a sequence
    of {!phase}s — each with its own faulty set,
    adversary and duration — plus one-shot {!event}s that corrupt the
    states of [victims] correct nodes to spec-random values at a given
    round (bit flips / reboots in the circuit interpretation). This is
    the fault model under which self-stabilisation actually earns its
    keep: the engine ({!Engine.run}) re-validates the faulty set
    and swaps the adversary's crafter at every phase boundary, applies
    corruptions between rounds, and reports a {e per-phase}
    re-stabilisation verdict and recovery time.

    Schedules are plain data. Random schedules are generated
    deterministically from a seed by {!random}, with every phase's faulty
    set bounded by the spec's [f] — so a chaos campaign is reproducible
    from its seed alone, at any [jobs] count (see {!Harness.Chaos}). *)

type 's phase = {
  adversary : 's Adversary.t;
  faulty : int list;  (** bounded by the spec's [f]; may be empty *)
  duration : int;  (** transition steps; [>= 0], normally [>= 1] *)
}

type event = {
  round : int;
      (** global round at which the corruption strikes, before the round's
          outputs are observed; [0 <= round < total_rounds] *)
  victims : int;
      (** how many {e correct} nodes get their state overwritten with a
          spec-random value; clamped to the number of correct nodes of the
          enclosing phase at execution time *)
}

type 's t = { phases : 's phase list; events : event list }

val total_rounds : 's t -> int
(** Sum of phase durations — the schedule's horizon. Output rows
    [0 .. total_rounds] are observed when executing it in full. *)

val validate_faulty : ?who:string -> n:int -> f:int -> int list -> int array
(** Shared faulty-set validation: returns the sorted array, or raises
    [Invalid_argument] — prefixed with [who] — on duplicates, out-of-range
    ids, or more than [f] members. *)

val validate : spec:'s Algo.Spec.t -> 's t -> 's t
(** Checks a schedule against a spec and returns it normalised (events
    sorted by round, faulty sets sorted). Raises [Invalid_argument] if
    there are no phases, a duration is negative, a faulty set fails
    {!validate_faulty}, or an event has [victims < 0] or a round outside
    [0 <= round < total_rounds]. *)

val static : adversary:'s Adversary.t -> faulty:int list -> rounds:int -> 's t
(** The degenerate one-phase, no-event schedule — exactly the static
    fault model of Section 2, and the schedule every sweep hands to
    {!Engine.run}. *)

val random :
  spec:'s Algo.Spec.t ->
  adversaries:'s Adversary.t list ->
  ?phases:int ->
  ?phase_rounds:int ->
  ?events:int ->
  ?max_victims:int ->
  ?event_margin:int ->
  seed:int ->
  unit ->
  's t
(** Deterministic random schedule from a seed. Each of the [phases]
    (default 3) phases draws an adversary uniformly from [adversaries], a
    faulty set of uniform size in [0 .. f] sampled without replacement,
    and a duration in [phase_rounds .. 2 * phase_rounds) (default
    [phase_rounds] 500). [events] (default 2) transient corruptions are
    placed uniformly over the horizon, each hitting [1 .. max_victims]
    (default 2) correct nodes; an event landing within [event_margin]
    (default 0) rounds of its phase's end is pulled back to the margin,
    so a re-stabilisation verdict has room to be certified —
    {!Harness.Chaos} and {!Hunt} pass their [min_suffix] here. The
    result is validated against [spec]. Equal seeds (and parameters)
    yield equal schedules.

    Raises [Invalid_argument] when [phase_rounds < event_margin + 2]:
    the shortest phase could then not fit one perturbation plus
    [event_margin] clean steps after it, so any verdict it produced
    would be vacuous. *)

val describe : 's t -> string
(** One-line human/JSON-friendly rendering:
    ["3 phases / 810 rounds: stuck f=[1;3] x300 | ... ; events t=120(k=2), ..."]. *)

(** {2 Size metric and shrinking steps}

    The hunt's ({!Hunt}) shrink lattice: each step either removes a
    structural element or halves a quantity, so every applicable step is
    {e strictly smaller} under {!size} — a greedy shrink terminates.
    Steps only maintain structural invariants; callers re-validate the
    result against a spec (a step can, e.g., leave an empty-horizon
    suffix that {!validate} rejects). All steps return [None] when they
    do not apply (index out of range, nothing left to shrink). *)

val size : 's t -> int
(** The shrink ordering: [total_rounds + #phases + Σ|faulty| +
    Σ(1 + victims)]. Every applicable shrink step strictly decreases
    it. *)

val drop_phase : 's t -> int -> 's t option
(** Remove phase [i] (never the last remaining phase). Events inside the
    dropped phase are dropped; later events shift back by its duration,
    keeping their offset within their own phase. *)

val halve_duration : ?floor:int -> ?margin:int -> 's t -> int -> 's t option
(** Halve phase [i]'s duration, not below [floor] (default 1; the hunt
    passes its certifiability floor so shrunk phases stay long enough to
    re-stabilise in). Events of the phase that no longer leave [margin]
    certifiable rounds before the new end are dropped (the same clamp
    {!random} applies at generation time); later events shift back.
    [None] if the duration is already at or below the floor. *)

val drop_event : 's t -> int -> 's t option
(** Remove the [j]-th event. *)

val halve_victims : 's t -> int -> 's t option
(** Halve the [j]-th event's victim count; [None] at 1 (use
    {!drop_event} to remove it entirely). *)

val drop_faulty : 's t -> phase:int -> index:int -> 's t option
(** Remove the [index]-th faulty id of phase [phase]. *)

val clamped_events : n:int -> 's t -> int
(** How many events ask for more victims than their phase has correct
    nodes — statically computable, and exactly the events the engine
    clamps at execution time (the [engine.clamped_events] metric). *)

val mutate :
  spec:'s Algo.Spec.t ->
  adversaries:'s Adversary.t list ->
  ?max_victims:int ->
  ?event_margin:int ->
  rng:Stdx.Rng.t ->
  's t ->
  's t
(** One structured mutation, drawn from [rng]: saturate a phase's faulty
    set to full resilience, swap a phase's adversary, align an event
    with a phase entry (stacking corruption on the phase-boundary
    perturbation), double an event's victims (capped at [max_victims],
    default 2), add a margin-respecting event, or put every phase under
    one adversary. Mutations that need an event on a schedule without
    any are identity. The result is validated against [spec]. Equal rng
    streams yield equal mutations — the hunt derives its per-trial
    mutation rng from the hunt seed. *)

(** {2 JSON round-trip}

    Corpus entries are self-describing: a schedule serialises to one
    JSON object with adversaries named by their registry name
    ({!Adversary.name}), e.g.
    [{"phases":[{"adversary":"stuck","faulty":[1,3],"duration":420}],
    "events":[{"round":17,"victims":2}]}]. Loading resolves names
    against the adversary list the caller supplies and rejects unknown
    names with the known names in the error. [of_json (to_json t) = t]
    whenever the registry covers the schedule's adversaries. *)

val to_json : 's t -> string
(** One-line JSON object (lint-clean under [jsonlint]). *)

val of_json_value :
  adversaries:'s Adversary.t list -> Stdx.Json.t -> 's t
(** Decode a parsed JSON value (for embedding schedules in larger
    objects, like corpus entries). Raises [Stdx.Json.Parse_error] on
    shape mismatches or unknown adversary names; [Invalid_argument] on
    an empty registry. *)

val of_json : adversaries:'s Adversary.t list -> string -> ('s t, string) result
(** Parse one line as written by {!to_json}. *)
