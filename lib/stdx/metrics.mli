(** Process-wide metrics registry: named counters, gauges and
    fixed-bucket histograms.

    A registry is a mutex-protected name → instrument table, so {!Pool}
    workers may record into a shared registry concurrently without
    losing increments. The sweep harnesses instead give every grid cell
    its own registry: as each cell finishes, its counters and histogram
    counts are added into the caller's registry at once
    ({!merge_counts}, integer adds that commute), and only the cell's
    {!ordered} rest — histogram sums and gauges — is kept until the
    pool drains and then applied in cell-index order
    ({!merge_ordered}). The result equals merging the whole
    {!snapshot}s in cell-index order, bit for bit, so it is identical at
    any jobs count (see DESIGN.md, "Telemetry").

    Instruments are created on first use; a name is permanently bound to
    its first kind and (for histograms) its first bucket layout —
    recording with a conflicting kind or layout raises
    [Invalid_argument], as does any non-finite observation. *)

type t
(** A mutable registry. *)

val create : unit -> t

val time_buckets : float array
(** Geometric wall-clock buckets in seconds, [1e-4 .. ~100] — the
    default for {!timed}. *)

val incr : ?by:int -> t -> string -> unit
(** Add [by] (default 1) to counter [name], creating it at 0 first. *)

val set_gauge : t -> string -> float -> unit
(** Set gauge [name] to a finite value (last write wins). *)

val observe : ?buckets:float array -> t -> string -> float -> unit
(** Record a finite sample into histogram [name]. The first call fixes
    the bucket layout ([buckets] must be strictly increasing upper
    bounds; default the geometric round-count buckets
    [1; 2; 4; ...; 65536]); a sample lands in the first
    bucket whose bound it does not exceed, or in the implicit overflow
    bucket. *)

val wall_clock : unit -> float
(** [Unix.gettimeofday] — exposed so callers above [stdx] can time
    without their own unix dependency. *)

val timed :
  ?buckets:float array ->
  ?clock:(unit -> float) ->
  t ->
  string ->
  (unit -> 'a) ->
  'a * float
(** [timed t name f] runs [f ()], records its wall-clock seconds into
    histogram [name] (bucket default {!time_buckets}), and returns the
    result with the measured seconds. The duration is recorded even when
    [f] raises. [clock] (default {!wall_clock}) exists for tests; the
    clock is not monotonic, so negative elapsed readings are clamped to
    0. *)

(** {2 Snapshots} *)

type histogram = {
  buckets : float array;  (** upper bounds, strictly increasing *)
  counts : int array;
      (** per-bucket sample counts; length [Array.length buckets + 1],
          the last entry being the overflow bucket *)
  count : int;  (** total samples *)
  sum : float;  (** sum of samples *)
}

type value = Counter of int | Gauge of float | Histogram of histogram

type snapshot = (string * value) list
(** Immutable registry contents, sorted by name. *)

val snapshot : t -> snapshot
val reset : t -> unit
(** Drop every instrument (names unbind too). *)

val find : snapshot -> string -> value option

val merge : t -> snapshot -> unit
(** Fold a snapshot into [t]: counters and histogram buckets add
    (layouts must match), gauges overwrite. Applying worker snapshots in
    a fixed order yields a deterministic result regardless of how the
    workers were scheduled. Same as {!merge_counts} followed by
    {!merge_ordered} of the snapshot's {!ordered} rest. *)

(** {2 Split merging}

    Of a merge, only the histograms' float sums (float addition does
    not associate) and the gauges (last write wins) depend on the order
    snapshots arrive in. A caller that merges snapshots as they are
    produced, in whatever order, may apply the commutative part at once
    and keep only each snapshot's {!ordered} rest, a few words per
    instrument, for a later pass in a fixed order. *)

type ordered
(** The order-sensitive rest of a snapshot: each histogram's sum and
    each gauge's value. *)

val ordered : snapshot -> ordered

val merge_counts : t -> snapshot -> unit
(** The commutative part of {!merge}: counters add, histogram bucket
    and sample counts add (creating the histogram with the snapshot's
    layout), sums and gauges are left out. Kind clashes and bucket
    layout mismatches raise [Invalid_argument] here, gauges included. *)

val merge_ordered : t -> ordered -> unit
(** The rest of {!merge}: add each sum to its histogram's, set each
    gauge. The snapshot's {!merge_counts} into [t] must come first. *)

val to_table : snapshot -> Table.t
(** Human-readable rendering: one row per instrument. *)

val to_json : snapshot -> string
(** JSON object
    [{"counters":{..},"gauges":{..},"histograms":{..}}] in the repo's
    jsonlint-compatible encoding (finite numbers only, sorted names). *)
