(** Deterministic domain pool for embarrassingly parallel task grids,
    with cost-sorted (LPT) claiming.

    Every sweep in this repository is a grid of independent runs, each
    fully keyed by its own inputs (an [(adversary, faulty, seed)] triple,
    a faulty set, a link seed). [Pool] executes such grids on OCaml 5
    [Domain]s with a guarantee the benches and tests lean on:

    {b the result is independent of scheduling.} Tasks are identified by
    their index in the grid; workers claim unclaimed indices one at a
    time from a [Mutex]-guarded shared cursor (no work stealing) and
    write each result into a pre-sized slot array at the task's own
    index. The claim order — which task a free worker picks up next —
    never changes the placement of results. Since each task derives all
    of its randomness from its own inputs (see {!Rng}: every simulation
    seeds a fresh SplitMix64 stream), the slot contents — and therefore
    the returned array — are byte-identical at any [jobs] count,
    including [jobs = 1].

    Exceptions raised by tasks are caught per-slot; after all workers
    have drained the queue, the exception of the {e lowest} failing task
    index is re-raised — again independent of scheduling and of the
    claim order (a cost-sorted pool may {e execute} a high index first,
    but the low index still wins propagation). *)

type stats = {
  actual_jobs : int;  (** worker count after clamping to the task count *)
  wall_s : float;
      (** whole-drain wall clock, first spawn to last join; with
          [worker_busy_s] this yields per-worker idle time
          ([wall_s - busy - claim]) *)
  worker_busy_s : float array;
      (** per-worker sum of task wall-clock seconds, length
          [actual_jobs]; slot 0 is the calling domain. The spread of
          this array is the load-imbalance signal: max/mean near 1 means
          the claim order kept every worker busy until the end. *)
  worker_claim_s : float array;
      (** per-worker seconds spent acquiring the claim cursor — mutex
          contention, the claiming-overhead signal *)
  worker_tasks : int array;  (** per-worker claimed task count *)
}

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the sensible default for
    CPU-bound grids. *)

val exec :
  ?jobs:int ->
  ?cost:(int -> float) ->
  ?stats:(stats -> unit) ->
  ?on_task:(worker:int -> index:int -> wall_s:float -> unit) ->
  int ->
  (int -> 'a) ->
  'a array
(** [exec ~jobs ~cost n f] computes [[| f 0; …; f (n-1) |]] on up to
    [jobs] domains (the calling domain participates, so [jobs = 2]
    spawns one extra domain). [jobs] defaults to [1] — no domains are
    spawned and the tasks run on the calling domain, still in claim
    order. [jobs] is clamped to [n]; [jobs < 1] or [n < 0] raise
    [Invalid_argument].

    The claim order is LPT (longest processing time first): [cost i] is
    evaluated once per task up front and indices are handed out one at
    a time by decreasing estimated cost, ties broken by lower index, so
    on uneven grids the expensive tasks do not land on a straggler at
    the tail. Without [cost] every task costs the same and the order is
    [0, 1, 2, …]. Costs must be finite ([Invalid_argument] otherwise).
    The order never changes the result; see the module docstring.

    [stats] is invoked exactly once, after every worker has drained the
    queue and before any task failure is re-raised, with the per-worker
    busy-time and task-count breakdown of this execution — wall-clock
    values are the one scheduling-dependent output, which is why they
    travel through this side channel rather than the result array.

    [on_task] is the live-progress hook: called as
    [g ~worker ~index ~wall_s] immediately after each task finishes
    (succeeded or failed), from the worker's own domain — the callee
    must be thread-safe (the heartbeat emitter is mutex-protected).
    Call order across workers is scheduling-dependent; like [stats] it
    carries only wall-clock side-channel data and must not influence
    results.

    [f] must not rely on shared mutable state: task order within the
    grid is scheduling-dependent (only the {e placement} of results is
    fixed). *)
