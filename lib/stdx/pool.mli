(** Deterministic domain pool for embarrassingly parallel task grids,
    with cost-sorted (LPT) claiming.

    Every sweep in this repository is a grid of independent runs, each
    fully keyed by its own inputs (an [(adversary, faulty, seed)] triple,
    a faulty set, a link seed). [Pool] executes such grids on OCaml 5
    [Domain]s with a guarantee the benches and tests lean on:

    {b the result is independent of scheduling.} Tasks are identified by
    their index in the grid; workers claim unclaimed indices one at a
    time from a shared atomic cursor (no work stealing) and write each
    result into a pre-sized slot array at the task's own index. The
    claim order — which task a free worker picks up next — never
    changes the placement of results. Since each task derives all of its
    randomness from its own inputs (see {!Rng}: every simulation seeds a
    fresh SplitMix64 stream), the slot contents — and therefore the
    returned array — are byte-identical at any [jobs] count, including
    [jobs = 1].

    Exceptions raised by tasks are caught per-slot; after all workers
    have drained the queue, the exception of the {e lowest} failing task
    index is re-raised — again independent of scheduling and of the
    claim order (a cost-sorted pool may {e execute} a high index first,
    but the low index still wins propagation).

    The pool only schedules: it reads no clock. A caller that times its
    tasks does so inside [f], per worker, as the campaign driver
    ([Sim.Campaign]) does. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the sensible default for
    CPU-bound grids. *)

val workers : jobs:int -> int -> int
(** [workers ~jobs n] is the number of workers {!exec} runs [n] tasks
    on: [jobs] clamped to [n], and at least 1. [jobs < 1] or [n < 0]
    raise [Invalid_argument]. *)

val exec :
  ?jobs:int ->
  ?cost:(int -> float) ->
  int ->
  (worker:int -> int -> 'a) ->
  'a array
(** [exec ~jobs ~cost n f] computes [[| f ~worker 0; …; f ~worker (n-1) |]]
    on [workers ~jobs n] domains (the calling domain participates, so
    [jobs = 2] spawns one extra domain). [jobs] defaults to [1] — no
    domains are spawned and the tasks run on the calling domain, still
    in claim order. [worker] is the id, in [[0, workers ~jobs n)], of
    the worker running the task; worker 0 is the calling domain, and
    each id is used by one domain only, so [f] may keep per-worker
    state in arrays indexed by it.

    The claim order is LPT (longest processing time first): [cost i] is
    evaluated once per task up front and indices are handed out one at
    a time by decreasing estimated cost, ties broken by lower index, so
    on uneven grids the expensive tasks do not land on a straggler at
    the tail. Without [cost] every task costs the same and the order is
    [0, 1, 2, …]. Costs must be finite ([Invalid_argument] otherwise).
    The order never changes the result; see the module docstring.

    [f] must not rely on shared mutable state: task order within the
    grid is scheduling-dependent (only the {e placement} of results is
    fixed). *)
