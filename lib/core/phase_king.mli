(** The phase-king protocol of Berman, Garay and Perry, in the
    self-stabilising adaptation of Section 3.4 / Table 2 of the paper.

    Each node keeps an output register [a] over [\[C\] ∪ {∞}] (the reset
    state ∞ is [None] here) and an auxiliary bit [d]. The protocol is
    driven by an external index [R ∈ \[tau\]], [tau = 3(F+2)]: in a round
    with index [R = 3l + p] the node executes instruction set [I_R] of
    Table 2, where [l ∈ \[F+2\]] names the current king node and
    [p ∈ {0,1,2}] the step within the king's 3-round block.

    Guarantees (proved in the paper, checked by our test suite):
    - {b Lemma 4}: if all non-faulty nodes execute [I_{3l}], [I_{3l+1}],
      [I_{3l+2}] in three consecutive rounds for a non-faulty king [l],
      then afterwards all non-faulty registers hold the same value
      [a ≠ ∞] and [d = 1].
    - {b Lemma 5}: if all non-faulty nodes agree on [a = x ≠ ∞] and have
      [d = 1], then after any one instruction set they agree on
      [x + 1 mod C] with [d = 1] — agreement persists regardless of which
      instructions run. *)

type reg = { a : int option;  (** [None] encodes ∞ *) d : bool }

val tau : big_f:int -> int
(** [tau ~big_f = 3 * (big_f + 2)], the number of instruction sets. *)

val king_of_index : int -> int
(** [king_of_index r = r / 3], the king [l] of instruction set [I_r]. *)

val increment : cap:int -> int option -> int option
(** Increment modulo [cap]; ∞ is left unchanged. *)

val step :
  cap:int ->
  big_n:int ->
  big_f:int ->
  index:int ->
  self:reg ->
  received:int option array ->
  reg
(** [step ~cap ~big_n ~big_f ~index ~self ~received] executes instruction
    set [I_index] (Table 2). [received.(u)] is the [a]-value node [u]
    broadcast this round as seen by this node (length [big_n]); received
    values outside [\[0, cap)] are treated as ∞ (a Byzantine node cannot
    smuggle an out-of-range register). Raises [Invalid_argument] if
    [index] is outside [\[0, tau)]. *)

(** {2 Register-level harness}

    Drives [big_n] registers through consecutive instruction sets with a
    pluggable fabricator for the [a]-values of faulty nodes. Used by the
    Lemma 4/5 test suites and by the `lemmas` bench. *)

type fabricator = round:int -> recipient:int -> faulty:int -> int option
(** What faulty node [faulty] claims to [recipient] in [round]. *)

val run_registers :
  cap:int ->
  big_f:int ->
  faulty:int list ->
  fabricator:fabricator ->
  init:reg array ->
  start_index:int ->
  rounds:int ->
  reg array array
(** [run_registers] returns the register matrix [regs.(t).(v)] for
    [t = 0..rounds]; the instruction index of round [t] is
    [(start_index + t) mod tau]. Faulty nodes' stored registers are
    frozen; their broadcasts come from [fabricator]. *)

val agreement : cap:int -> faulty:int list -> reg array -> int option
(** [Some x] when all non-faulty registers hold [a = Some x] and [d = 1]. *)
