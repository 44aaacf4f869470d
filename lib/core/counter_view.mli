(** Interpretation of block counter values (Section 3.2).

    Block [i] of the Theorem 1 construction runs a [c_i]-counter with
    [c_i = tau * (2m)^(i+1)], [tau = 3(F+2)]. Its value [v] is read as a
    tuple [(r, y)] in [\[tau\] x \[(2m)^(i+1)\]]: [r = v mod tau] advances
    every round and [y] advances whenever [r] overflows. The *leader
    pointer* is [b = floor(y / (2m)^i) mod m]: block [i] points at one of
    the [m] candidate leader blocks, switching pointers a factor [2m]
    slower than block [i-1], which is what makes all stabilised pointers
    eventually coincide for [tau] consecutive rounds (Lemmas 1-2). *)

type t = {
  r : int;  (** round-within-window counter, in [\[0, tau)] *)
  y : int;  (** window counter, in [\[0, (2m)^(i+1))] *)
  b : int;  (** leader pointer, in [\[0, m)] *)
}

type params = {
  tau : int;  (** = 3(F+2) *)
  two_m : int;  (** = 2 * ceil(k/2) *)
  m : int;  (** = ceil(k/2) *)
  level : int;  (** block index i in [\[0, k)] *)
}

val make_params : ?base:int -> tau:int -> m:int -> level:int -> unit -> params
(** [base] defaults to [2 * m], the pointer-stepping base the
    construction requires; the ablation benches pass [base = m] to
    reproduce the Lemma 2 failure mode. *)

val modulus : params -> int
(** [c_i = tau * (2m)^(i+1)] for this block level. *)

val of_value : params -> int -> t
(** Decode a counter value in [\[0, c_i)]. Values outside the range are
    first reduced mod [c_i] (Byzantine blocks can expose anything). *)

val dwell_length : params -> int
(** Number of consecutive rounds a stabilised block keeps one pointer
    value: [c_{i-1} = tau * (2m)^i] (with [c_{-1} = tau]). *)

val pointer_at : params -> start_value:int -> round:int -> int
(** Pointer [b] of a stabilised block that held counter [start_value] at
    round 0, evaluated at [round] — pure arithmetic, used by tests to
    cross-check simulation. *)
