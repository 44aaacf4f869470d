(** Minimal JSON value codec shared by the repository's line-oriented
    formats.

    Every machine-readable artefact here is JSONL — trace events
    ({!Sim.Trace}), hunt corpus entries, bench logs — written with
    [%.17g] floats (so finite floats round-trip exactly) and read back
    through this parser. The module is deliberately small: a value
    type, a strict parser that boxes no byte as it scans, the string
    escaper and number spellings the writers share, and the handful of
    typed accessors decoding needs. *)

type t =
  | Null
  | Bool of bool
  | Int of int
      (** integer literals that fit [int]; anything else parses as
          {!Float} *)
  | Float of float
  | String of string
  | Array of t list
  | Object of (string * t) list  (** fields in source order *)

exception Parse_error of string
(** Raised by {!parse} and the accessors; the payload says what was
    expected and (for {!parse}) at which byte. *)

val parse : string -> t
(** Parse one complete JSON value; trailing content (other than
    whitespace) is an error. The grammar is RFC 8259's, strictly: no
    leading zeros, no raw control characters (below 0x20) inside
    strings, exactly four hex digits after [\u], no trailing commas.
    A [\u] escape decodes to UTF-8, a [\uD8xx\uDCxx] surrogate pair
    to one character; a surrogate outside such a pair is an error at
    its escape's backslash. Raises {!Parse_error} with the offending
    byte offset. *)

val parse_result : string -> (t, string) result
(** {!parse} with the error captured. *)

val lines : string -> (int * string) Seq.t
(** The non-blank lines of a JSONL text, each with its 1-based line
    number (blank lines still count). Lines are cut at ['\n'] only, as
    [input_line] cuts them, so a ['\r'] before it stays in the line; a
    last line without its newline is still a line. Each line is cut
    only when the sequence reaches it, so a reader holds one line at a
    time besides the text. Every JSONL reader in the repository splits
    its input here and reports errors as [line N: ...]. *)

val escape : string -> string
(** Escape a string for embedding between double quotes in JSON output
    (the same escaping all writers in the repository use). A string
    with nothing to escape is returned as is. *)

(** {2 Writing into a buffer}

    The appenders behind the repository's hot writers (the trace's
    JSONL lines): no format string is interpreted. *)

val add_escaped : Buffer.t -> string -> unit
(** Append {!escape}[ s]. *)

val add_int : Buffer.t -> int -> unit
(** Append the decimal spelling of an int, as [string_of_int]. *)

val add_float : Buffer.t -> float -> unit
(** Append a float spelled exactly as C's [%.17g], which round-trips
    every finite float through {!parse}. Integral values below [1e17]
    and values from [1e-5] up to [1e15] are spelled by exact integer
    arithmetic; the rest (and non-finite values, which are not JSON)
    go through [Printf]. *)

val float_to_string : float -> string
(** {!add_float} into a fresh string. *)

(** {2 Typed accessors}

    Each takes a field name used only for error messages and raises
    {!Parse_error} on a shape mismatch. *)

val field : t -> string -> t
(** [field obj name] is the value of [name] in an [Object]; raises if
    missing or not an object. *)

val field_opt : t -> string -> t option
(** [None] when the field is absent; still raises if [t] is not an
    object. *)

val to_int : string -> t -> int
val to_string : string -> t -> string

val to_float : string -> t -> float
(** Accepts [Int] too (JSON does not distinguish). *)

val to_bool : string -> t -> bool
val to_opt_int : string -> t -> int option
(** [Null] maps to [None]. *)

val to_ints : string -> t -> int list
val to_list : string -> t -> t list
