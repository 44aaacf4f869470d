(** Packed state vector of the simulation engine.

    One slot per node, holding the spec's dense integer state code
    (see {!Algo.Spec.codec}). State spaces of up to 256 codes pack into
    a byte string; larger ones use an unboxed int bigarray, so neither
    representation boxes per-slot. The engine owns two of these
    (double-buffered); flat adversary kernels ({!Adversary.flat_crafter})
    receive the current one read-only and fabricate messages from raw
    codes without ever decoding a state. *)

type t =
  | Small of Bytes.t  (** [num_states <= 256]: one byte per node *)
  | Wide of (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : num_states:int -> int -> t
(** [create ~num_states n] is an [n]-slot vector of zero codes, in the
    smallest representation that fits [num_states] codes. *)

val length : t -> int

val get : t -> int -> int
val set : t -> int -> int -> unit

val blit_to : t -> int array -> int -> unit
(** [blit_to t dst n] copies codes of slots [0 .. n-1] into [dst]. *)
