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

(** The two tests Table 2 puts on the vote count [z] of a value: a
    {e quorum} keeps the register ([I_{3l}]) and raises [d]
    ([I_{3l+1}]); {e support} lets [I_{3l+1}] adopt the value. *)
type thresholds =
  | Table2 of { big_n : int; big_f : int }
      (** Table 2: quorum [z ≥ N−F], support [z > F] *)
  | Majority of { big_n : int }
      (** ablation A3: quorum [z > N/2], support [z ≥ 1]; Byzantine
          votes can fake both *)
  | Lemma8 of { samples : int }
      (** Lemma 8 (Section 5.3), over [M = samples] samples: quorum
          [3z ≥ 2M] ([⌈2M/3⌉] votes), support [3z > M] (strictly above
          a third) *)

val instruction :
  cap:int ->
  thresholds ->
  index:int ->
  self:reg ->
  votes:int option array ->
  king:int option ->
  reg
(** [instruction ~cap th ~index ~self ~votes ~king] executes instruction
    set [I_index] (only [index mod 3] matters) under [th]: [I_{3l}] and
    [I_{3l+1}] count [votes] (any length), [I_{3l+2}] imposes [king].
    Votes and king values outside [\[0, cap)] count as ∞: a Byzantine
    node cannot smuggle an out-of-range register. Raises
    [Invalid_argument] if [self.a] is outside [\[0, cap)], which no
    honest register is. *)

val step :
  cap:int ->
  big_n:int ->
  big_f:int ->
  index:int ->
  self:reg ->
  received:int option array ->
  reg
(** [step ~cap ~big_n ~big_f ~index ~self ~received] is Table 2's call
    of {!instruction}: thresholds [Table2], votes [received] (the
    [a]-values of all [big_n] nodes as this node sees them) and king
    [received.(king_of_index index)]. Raises [Invalid_argument] if
    [index] is outside [\[0, tau)], [received] has the wrong length or
    [self.a] is out of range. *)

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
