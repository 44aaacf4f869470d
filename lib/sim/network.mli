(** Synchronous broadcast-round simulator (the model of Section 2).

    Each round every node broadcasts its state, receives an [n]-vector of
    messages — with the slots of faulty senders replaced per-recipient by
    whatever the adversary fabricates — and applies the transition
    function. Initial states are arbitrary (drawn at random from the state
    space, or supplied explicitly). Every run is reproducible from its
    integer seed. *)

type 's run = {
  spec : 's Algo.Spec.t;
  faulty : int array;  (** sorted ids of Byzantine nodes *)
  seed : int;
  rounds : int;
  states : 's array array;
      (** [states.(t).(v)] = state of node [v] at the start of round [t];
          [t] ranges over [0 .. rounds]. Faulty nodes' stored states evolve
          by the honest transition on true inputs but are never trusted. *)
  outputs : int array array;
      (** [outputs.(t).(v) = h(v, states.(t).(v))]. *)
  messages_per_round : int;
      (** broadcast cost bookkeeping: n*(n-1) links *)
  bits_per_round : int;  (** [messages_per_round * state_bits] *)
}

val run :
  ?init:'s array ->
  spec:'s Algo.Spec.t ->
  adversary:'s Adversary.t ->
  faulty:int list ->
  rounds:int ->
  seed:int ->
  unit ->
  's run
(** Simulate [rounds] rounds. Raises [Invalid_argument] if the faulty set
    has duplicates, ids out of range, or more than [spec.f] members (pass
    fewer to study under-provisioned fault sets), or if [init] has wrong
    length. Per-round observers walk [states]/[outputs]; a run that needs
    only a verdict should use {!Engine.run} and early-exit instead. *)

val correct_ids : 's run -> int list
(** Node ids outside the faulty set. *)

val output_row : 's run -> round:int -> int array
(** Outputs of all nodes at a given round. *)
