(** Indexed configuration space of a small algorithm.

    A {e configuration} (Section 2) is the projection [pi_F] of a state
    vector to the non-faulty nodes: the adversary fully controls what the
    faulty slots look like to each recipient, so only correct nodes'
    states constitute system state. For a spec with an enumerable state
    space [X] and a concrete faulty set [F], configurations are elements
    of [X^{n - |F|}], encoded as integers in mixed radix for dense
    bitmaps and memo tables. *)

type 's t

val create : ?max_configs:int -> 's Algo.Spec.t -> faulty:int list -> ('s t, string) result
(** Requires [spec.all_states <> None], [spec.deterministic], a valid
    faulty set of size [<= spec.f], and at most [max_configs]
    (default [2_000_000]) configurations. *)

val create_exn : ?max_configs:int -> 's Algo.Spec.t -> faulty:int list -> 's t

val spec : 's t -> 's Algo.Spec.t
val faulty : 's t -> int list
val correct : 's t -> int array
(** Non-faulty node ids, ascending. *)

val state_count : 's t -> int
val config_count : 's t -> int


val outputs : 's t -> int -> int array
(** Outputs of correct nodes in a configuration. *)

val agreeing_output : 's t -> int -> int option
(** [Some v] if all correct nodes output [v] in the configuration. *)

val successor_sets : 's t -> int -> int list array
(** [successor_sets t cfg] gives, for each correct node (aligned with
    [correct]), the sorted list of state indices it can be driven to by
    the adversary: [{ g(v, x) : x agrees with cfg on correct nodes }],
    ranging over all [|X|^{|F|}] Byzantine message choices. Memoised. *)

val successors_forall :
  's t -> int -> (int -> bool) -> bool
(** [successors_forall t cfg pred]: does every adversary-reachable
    successor configuration satisfy [pred]? Enumerates the product of the
    per-node successor sets with early exit. *)

val successors_exists : 's t -> int -> (int -> bool) -> bool

val iter_successors : 's t -> int -> (int -> unit) -> unit
(** Visit every successor configuration (may revisit duplicates). *)

