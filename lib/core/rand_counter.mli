(** Randomised synchronous 2-counter — the space-efficient baseline of
    Table 1 (rows citing Dolev-Welch style algorithms [6,7]).

    "The nodes can just pick random states until a clear majority of them
    has the same state, after which they start to follow the majority."

    Concretely each node holds one bit; each round it counts the received
    bits and, if some bit value [b] has at least [n - f] votes, outputs
    the successor [1 - b]; otherwise it flips a fair coin. Once all
    correct nodes agree, the [n - f] honest votes alone sustain the
    quorum forever, so agreement persists and the system counts mod 2;
    until then the adversary can only delay the lucky round in which all
    coin flips coincide, which takes [2^Theta(n - f)] expected rounds —
    exponential, but with a single bit of state. *)

val make : n:int -> f:int -> int Algo.Spec.t
(** Raises [Invalid_argument] unless [n >= 2] and [0 <= f < n/3]. The spec
    has [c = 2], [state_bits = 1], [deterministic = false]. *)
