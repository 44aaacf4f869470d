(** Minimal JSON value codec shared by the repository's line-oriented
    formats.

    Every machine-readable artefact here is JSONL — trace events
    ({!Sim.Trace}), hunt corpus entries, bench logs — written by
    [Printf] with [%.17g] floats (so finite floats round-trip exactly)
    and read back through this parser. The module is deliberately small:
    a value type, a strict parser, the string escaper the writers share,
    and the handful of typed accessors decoding needs. *)

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

val escape : string -> string
(** Escape a string for embedding between double quotes in JSON output
    (the same escaping all writers in the repository use). *)

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
