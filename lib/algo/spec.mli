(** First-class representation of a synchronous counting algorithm.

    Following Section 2 of the paper, a deterministic algorithm is a tuple
    [A = (X, g, h)]: a state set [X], a transition function
    [g : \[n\] x X^n -> X], and an output function [h : \[n\] x X -> \[c\]].
    In every synchronous round each node broadcasts its state, receives the
    vector of states of all [n] nodes (with slots of Byzantine senders
    replaced by arbitrary values, possibly different per recipient), and
    applies [g].

    A value of type ['s t] packages the tuple together with the metadata
    needed by the rest of the repository:

    - the simulator needs [random_state] (arbitrary initial states and
      Byzantine message fabrication) and [equal_state]/[pp_state];
    - the model checker additionally needs [all_states] and
      [compare_state];
    - the resilience-boosting construction of Theorem 1 composes specs
      into specs of a richer state type;
    - [state_bits] carries the paper's space complexity
      [S(A) = ceil(log2 |X|)].

    Randomised algorithms (the baseline of Table 1 rows citing
    Dolev-Welch) use the [rng] argument of [transition] and set
    [deterministic = false]; deterministic algorithms must ignore [rng]. *)

type kernel = {
  load : int array -> unit;
      (** [load received] announces [received] as the current vector:
          every slot may have changed since the last announcement. *)
  set : int -> int -> unit;
      (** [set u code] announces that slot [u] of the announced vector now
          holds [code]; the caller has already written [code] there. *)
  step : self:int -> rng:Stdx.Rng.t -> int array -> int;
      (** [step ~self ~rng received] is
          [encode (g(self, decode received))]. [received] must be the
          array last passed to [load], with every write to it since
          announced through [set]. *)
  step_output : self:int -> rng:Stdx.Rng.t -> int array -> int;
      (** [step_output ~self ~rng received] is
          [output_code ~self (step ~self ~rng received)], under the same
          precondition on [received], but it may leave [rng] in a
          different state than [step] would: callers pass a throwaway
          stream (a lookahead probe's split) and read only the output.
          A kernel whose output reads a small part of the state computes
          just that part (the boost tower's: its phase-king register,
          never its inner counters). Like [step], it leaves the
          announced vector and every later [step] unaffected. *)
}
(** A transition kernel operating directly on packed integer state codes,
    told which received slots changed instead of rediscovering it.

    The protocol: [load v] once, then any interleaving of [set]s (each
    after writing the slot of [v]) and [step]s on [v]. A [step] must
    return exactly what a fresh kernel returns after [load v] alone, on
    the same [self] and an identically seeded [rng]: announcements never
    consume the rng, and a kernel's caches are invisible. A [set] that
    writes the code already in the slot is allowed.

    This lets a kernel keep derived views of the vector (decoded slots,
    vote tallies) and update them per announced slot. The engine loads the
    round's true states once and then sets only the faulty slots whose
    crafted message differs per recipient, so a kernel pays for the
    slots that change, not for rescanning all [n] of them per recipient.
    Kernels with nothing to cache ({!identity_codec}'s) ignore [load]
    and [set]. [step_output] serves lookahead adversaries, which probe
    a recipient's next output once per candidate message.

    Since [step_output]'s rng may end in any state, an rng passed to it
    must not be reused for a [step] whose result matters.

    A kernel value may own private mutable scratch buffers, so it serves
    one run at a time; immutable per-spec tables it reads may be shared
    with other kernels. [load] is the reset: whatever earlier runs
    announced and stepped, a [step] after [load v] returns what a fresh
    kernel's does, so the engine keeps a finished run's kernel for the
    next run in its domain (see {!codec.fresh_kernel}). *)

type 's codec = {
  num_states : int;  (** [|X|]; codes are dense in [\[0, num_states)] *)
  encode_state : 's -> int;
      (** injective, order-preserving w.r.t. [compare_state] *)
  decode_state : int -> 's;  (** left inverse of [encode_state] *)
  output_code : self:int -> int -> int;
      (** [h] in code space: [output_code ~self (encode_state s)
          = output ~self s] *)
  random_code : Stdx.Rng.t -> int;
      (** [random_state] in code space: [random_code rng =
          encode_state (random_state rng)], {e consuming the rng
          stream identically} — adversary kernels fabricate random
          messages through this, so any divergence (value or draw
          count) makes the engine's runs differ from the boxed
          reference's.
          {!validate_exn} spot-checks both on fresh streams. *)
  fresh_kernel : unit -> kernel;
      (** a fresh kernel; called when the domain holds no idle kernel
          for this codec (one this function made) as an engine run
          starts, possibly from several domains at once. Every
          instance's mutable scratch is private, so concurrent runs over
          a shared spec never race.
          Immutable per-spec tables (lookup tables, say) may be shared by
          all instances and across domains, and may be built on the first
          call — safely if two domains make it at once. *)
}
(** Dense integer encoding of the state set [X], the contract behind the
    simulation engine's packed state vectors. The encoding is a bijection
    between [X] and [\[0, num_states)] that agrees with [compare_state]'s
    order, and the kernel computes exactly the spec's [transition] in code
    space — the engine is certified against a boxed reference simulator
    that runs [transition] itself. *)

type 's t = {
  name : string;  (** human-readable, e.g. ["boost(k=3,F=3) over triv"] *)
  n : int;  (** number of nodes the algorithm runs on *)
  f : int;  (** claimed resilience: tolerated Byzantine nodes *)
  c : int;  (** counts modulo [c]; outputs lie in [\[0, c)] *)
  deterministic : bool;
  state_bits : int;  (** [S(A) = ceil(log2 |X|)] *)
  equal_state : 's -> 's -> bool;
  compare_state : 's -> 's -> int;  (** total order, for sets/maps *)
  pp_state : Format.formatter -> 's -> unit;
  random_state : Stdx.Rng.t -> 's;
      (** uniform-ish sample of [X]; used for arbitrary initial states and
          as a building block of Byzantine behaviour *)
  all_states : 's list option;
      (** full enumeration of [X] when tractable (enables model checking);
          [None] for composed algorithms with astronomically many states *)
  transition : self:int -> rng:Stdx.Rng.t -> 's array -> 's;
      (** [transition ~self ~rng received] is [g(self, received)];
          [received.(j)] is the message from node [j] as seen by [self]
          (non-faulty [j] send their true state, and
          [received.(self)] is the node's own state) *)
  output : self:int -> 's -> int;  (** [h(self, state)], in [\[0, c)] *)
  codec : 's codec option;
      (** dense int encoding of [X]; the simulation engine requires it
          and rejects specs with [None] (e.g. towers whose codes would
          pass 62 bits) *)
}

val generic_kernel :
  n:int ->
  transition:(self:int -> rng:Stdx.Rng.t -> 's array -> 's) ->
  output:(self:int -> 's -> int) ->
  encode_state:('s -> int) ->
  decode_state:(int -> 's) ->
  unit ->
  kernel
(** Reference kernel: [load] decodes every received code into a private
    scratch array and [set] re-decodes one slot; [step] applies
    [transition] to the scratch array and encodes the result, and
    [step_output] applies [output] to it instead. Always exact, never
    fast — the building block for specs without a hand-written flat
    kernel. *)

val identity_codec :
  ?random_code:(Stdx.Rng.t -> int) ->
  num_states:int ->
  transition:(self:int -> rng:Stdx.Rng.t -> int array -> int) ->
  output:(self:int -> int -> int) ->
  unit ->
  int codec
(** Codec for specs whose state type is already a dense [int] in
    [\[0, num_states)]: encoding is the identity and the kernel is the
    spec's own transition, with no-op [load] and [set] and
    [step_output] composing [output] with it. [random_code]
    defaults to a uniform [Rng.int rng num_states] draw — override it
    iff the spec's [random_state] samples differently (the two must stay
    in draw-level lockstep; see {!codec.random_code}). *)

val with_derived_codec : 's t -> 's t
(** [with_derived_codec spec] is [spec] with its [codec] built from
    [all_states] (sorted by [compare_state]; encoding by binary search,
    kernel via {!generic_kernel}), or [None] when [all_states] is
    [None]. *)

val validate_exn : 's t -> 's t
(** [validate_exn spec] is [spec], or raises [Invalid_argument] with the
    failure reason. Structural sanity checks only: [n >= 1], [0 <= f],
    [c >= 1], [state_bits >= 1]. When [all_states] is available: it is
    non-empty, [state_bits] is at least [ceil(log2 |X|)], and the
    outputs of all states at all nodes lie in [\[0, c)]. When [codec] is
    present: [num_states >= 1], [state_bits] covers [num_states], and
    [random_code] agrees with [random_state] on eight fresh streams (same
    value, same draws); given [all_states] as well, [num_states] is the
    number of distinct states and the codec round-trips every state
    inside [\[0, num_states)]. [transition] is never run: a spec whose
    transition leaves [X] is accepted ([test_algo.ml], "validate does
    not run transition"). *)

type packed = Packed : 's t -> packed
(** Existential wrapper so heterogeneously-typed levels of the recursive
    construction can live in one list. *)
