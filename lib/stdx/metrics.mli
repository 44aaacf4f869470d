(** Process-wide metrics registry: named counters and fixed-bucket
    histograms.

    A registry is a mutex-protected name → instrument table, kept
    sorted by name, so {!Pool} workers may record into a shared
    registry concurrently without losing increments, and a {!snapshot}
    needs no sort. The sweep harnesses instead give every grid cell its
    own registry: as each cell finishes, its counters and histogram
    counts are added into the caller's registry at once ({!add_counts},
    integer adds that commute), and only the cell's {!rest} — its
    histogram sums — is kept until every lower-indexed cell has been
    merged and then applied in cell-index order ({!merge_ordered}). The
    result equals merging the whole {!snapshot}s in cell-index order,
    bit for bit, so it is identical at any jobs count (see DESIGN.md,
    "Telemetry").

    Instruments are created on first use; a name is bound to its first
    kind and (for histograms) its first bucket layout until the registry
    is {!clear}ed — recording with a conflicting kind or layout raises
    [Invalid_argument], as does any non-finite observation. *)

type t
(** A mutable registry. *)

val create : unit -> t

val time_buckets : float array
(** Geometric wall-clock buckets in seconds, [1e-4 .. ~100]. *)

val incr : ?by:int -> t -> string -> unit
(** Add [by] (default 1) to counter [name], creating it at 0 first. *)

val observe : ?buckets:float array -> t -> string -> float -> unit
(** Record a finite sample into histogram [name]. The first call fixes
    the bucket layout ([buckets] must be strictly increasing upper
    bounds; default the geometric round-count buckets
    [1; 2; 4; ...; 65536]); a sample lands in the first
    bucket whose bound it does not exceed, or in the implicit overflow
    bucket. *)

val clear : t -> unit
(** Empty the registry, keeping its instruments' storage: afterwards it
    behaves exactly as a fresh one — a snapshot lists only what is
    recorded from then on, and a name may come back as any kind or
    layout — but an instrument that comes back as before is revived
    in place, not built anew. A campaign worker reuses one cleared
    registry for all its cells. *)

type update =
  | Incr of string * int  (** {!incr} [~by] *)
  | Observe of string * float
      (** {!observe} into the histogram's layout, or the default one *)

val record : t -> update list -> unit
(** Apply [updates] in order under one lock, as the matching {!incr}
    and {!observe} calls would one by one: same instruments created,
    same float sums, and the same error at the first update that fails,
    those before it applied. The engine records each run this way: one
    registry update per run, not one per instrument. A batch sorted by
    name is applied in one forward walk over the registry, each name
    found by address within a few slots of the previous one. *)

val wall_clock : unit -> float
(** The wall clock, [gettimeofday] — the library's one clock read,
    exposed so callers above [stdx] can time without their own unix
    dependency. *)

(** {2 Snapshots} *)

type histogram = {
  buckets : float array;  (** upper bounds, strictly increasing *)
  counts : int array;
      (** per-bucket sample counts; length [Array.length buckets + 1],
          the last entry being the overflow bucket *)
  count : int;  (** total samples *)
  sum : float;  (** sum of samples *)
}

type value = Counter of int | Histogram of histogram

type snapshot = (string * value) list
(** Immutable registry contents, sorted by name. *)

val snapshot : t -> snapshot

val find : snapshot -> string -> value option

val merge : t -> snapshot -> unit
(** Fold a snapshot into [t]: counters, histogram buckets and sums add
    (layouts must match; a kind clash or a layout mismatch raises
    [Invalid_argument]). Applying worker snapshots in a fixed order
    yields a deterministic result regardless of how the workers were
    scheduled. The split merge below is checked against it:
    [test_campaign.ml] ("folding at completion equals the index-order
    merge") and [test_telemetry.ml] ("add_counts and rest equal the
    snapshot merge", "merge is deterministic and additive") merge whole
    snapshots in cell-index order with it as the oracle. *)

(** {2 Merging a registry in two halves}

    Of a merge, only the histograms' float sums depend on the order
    registries arrive in (float addition does not associate). A caller
    that merges cell registries as the cells finish, in whatever order,
    applies the commutative part at once ({!add_counts}) and keeps only
    each cell's {!rest}, one float per histogram, for a later pass in a
    fixed order ({!merge_ordered}). Nothing is copied or sorted: the
    walk over both sorted registries finds each name by address within
    a few slots of the previous one. *)

type ordered
(** The order-sensitive rest of a registry: each histogram's sum. *)

val add_counts : t -> t -> unit
(** [add_counts t cell] adds [cell]'s counters and histogram bucket and
    sample counts into [t] (creating each histogram with [cell]'s
    layout); the sums are left out. Kind clashes and bucket layout
    mismatches raise [Invalid_argument]. [cell] must be quiescent — no
    domain records into it during the call (the campaigns pass a cell
    whose run has returned) — as only [t] is locked. *)

val rest : t -> ordered
(** [rest cell]: the histogram sums {!add_counts} leaves out. *)

val merge_ordered : t -> ordered -> unit
(** Add each sum of a {!rest} to its histogram's. The same registry's
    {!add_counts} into [t] must come first. *)

val to_table : snapshot -> Table.t
(** Human-readable rendering: one row per instrument. *)

val to_json : snapshot -> string
(** JSON object
    [{"counters":{..},"histograms":{..}}] in the repo's
    jsonlint-compatible encoding (finite numbers only, sorted names). *)
