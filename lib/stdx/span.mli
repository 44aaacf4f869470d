(** Nestable, allocation-light timing spans.

    A span context either records into a {!Metrics} histogram named
    ["span.<name>_s"] (time buckets), fans out to an [on_record] hook,
    or both — or is {!disabled}, in which case every operation is a
    single branch and instrumented hot paths cost nothing. Spans are
    pure wall-time instruments: they never touch RNG streams or
    outcomes, and the harnesses give each grid cell a private context so
    recorded totals merge deterministically (see DESIGN.md, "Live
    observability"). *)

type t

val disabled : t
(** The inert context: {!enabled} is [false]; {!record} and {!with_} do
    nothing beyond running the wrapped function. *)

val create :
  ?clock:(unit -> float) ->
  ?metrics:Metrics.t ->
  ?on_record:(string -> int -> float -> unit) ->
  unit ->
  t
(** A live context. [clock] defaults to {!Metrics.wall_clock} (tests
    inject a mock); [metrics] receives ["span.<name>_s"] histogram
    samples; [on_record] is called as [f name count secs] after each
    recording — the hook higher layers use to emit trace events.

    The context measures what one read of its clock costs, the least
    average over eight runs of 256 back-to-back reads: once per context
    for an injected clock, and once per process for the wall clock,
    whose measurement every later context shares (a campaign makes one
    context per cell). A clock that does not move during the
    measurement costs 0. *)

val enabled : t -> bool
(** [false] only for {!disabled} — hot loops branch on this once and
    skip their clock reads entirely. *)

val now : t -> float
(** The context's clock (0 on {!disabled}); for call sites that
    accumulate sampled sections manually, then take their reads out
    with {!sections}, before one {!record}. *)

val sections : t -> int -> float -> float
(** [sections t count secs] — the time [count] timed sections took, when
    the differences of their clock reads ({!now}) sum to [secs]: [secs]
    less [count] clock reads, clamped at 0. Each difference also holds
    about one read (the end of the first and the start of the second);
    on sections of tens of nanoseconds, such as a sampled engine round
    of a small tower, that read is most of the difference. The sum is
    clamped, not each section: a microsecond clock reads such a section
    as 0 mostly and as a whole microsecond now and then, and only over
    the sum does the read average out. *)

val record : ?count:int -> t -> string -> float -> unit
(** [record t name secs] records one span total: [secs] is clamped at 0
    (the clock can step backwards), observed into ["span.<name>_s"] when
    the context has metrics, then handed to [on_record] together with
    [count] (default 1 — the number of timed occurrences the total
    covers, e.g. sampled rounds). *)

val with_ : t -> string -> (unit -> 'a) -> 'a
(** [with_ t name f] times [f ()] (one of {!sections}) and {!record}s
    it under [name], even when [f] raises. Nest freely — inner spans
    simply record under their own names. *)
