(** Aligned plain-text tables for the experiment harness output.

    Every reproduced paper table/figure is ultimately rendered through
    this module so that `bench/main.exe` output is stable and diffable. *)

type align = Left | Right

type t

val create : ?aligns:align list -> string list -> t
(** [create header] makes an empty table with the given column names.
    [aligns] defaults to [Left] for the first column and [Right] for the
    rest, the usual layout for label + numeric columns. *)

val add_row : t -> string list -> unit
(** Append a row. Raises [Invalid_argument] if the width differs from the
    header. *)

val add_rule : t -> unit
(** Append a horizontal separator line. *)

val to_string : t -> string
val print : t -> unit
(** [print t] writes the rendered table to stdout followed by a newline. *)

(** Convenience formatters for cells. *)

val cell_int : int -> string
val cell_float : ?digits:int -> float -> string
