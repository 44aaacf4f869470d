(** Deterministic domain pool for embarrassingly parallel task grids,
    with pluggable cost-aware claiming.

    Every sweep in this repository is a grid of independent runs, each
    fully keyed by its own inputs (an [(adversary, faulty, seed)] triple,
    a faulty set, a link seed). [Pool] executes such grids on OCaml 5
    [Domain]s with a guarantee the benches and tests lean on:

    {b the result is independent of scheduling.} Tasks are identified by
    their index in the grid; workers claim unclaimed indices from a
    [Mutex]-guarded shared cursor (no work stealing) and write each
    result into a pre-sized slot array at the task's own index. The
    {!schedule} policy only changes the {e claim order} — which task a
    free worker picks up next — never the placement of results. Since
    each task derives all of its randomness from its own inputs (see
    {!Rng}: every simulation seeds a fresh SplitMix64 stream), the slot
    contents — and therefore the returned array — are byte-identical at
    any [jobs] count and under any policy, including [jobs = 1].

    Exceptions raised by tasks are caught per-slot; after all workers
    have drained the queue, the exception of the {e lowest} failing task
    index is re-raised — again independent of scheduling and of the
    claim order (a [Cost_sorted] pool may {e execute} a high index
    first, but the low index still wins propagation). *)

type schedule =
  | In_order  (** claim indices [0, 1, 2, …] — the historical order *)
  | Cost_sorted of (int -> float)
      (** LPT (longest-processing-time-first) claiming: [Cost_sorted c]
          evaluates [c i] once per task up front and hands out indices
          by decreasing estimated cost, ties broken by lower index. With
          uneven grids this keeps the expensive tasks from landing on a
          straggler at the tail. Costs must be finite
          ([Invalid_argument] otherwise); a constant cost function
          degrades exactly to {!In_order}. *)
  | Chunked of int
      (** [Chunked k] claims [k] consecutive indices per mutex
          acquisition (in index order) — lower claiming overhead for
          grids of many tiny tasks. [k < 1] raises [Invalid_argument];
          [Chunked 1] is {!In_order}. *)
  | Chunked_auto of (int -> float) option
      (** [Chunked_auto cost] is {!Chunked} with the size resolved at
          {!exec} time by {!auto_chunk} from the per-task cost model
          ([None] means uniform costs). A fixed chunk size is a bet on
          the grid's shape — large chunks amortise claiming on uniform
          grids but bundle a skewed grid's expensive tail into one
          claim, stranding it on a single worker. The auto policy picks
          the largest size whose costliest chunk still fits a
          per-worker slack budget, so the same spelling is safe on
          both. The resolved size is reported in {!stats.chunk}. *)

val schedule_name : schedule -> string
(** ["inorder"], ["cost"], ["chunk:N"] or ["chunk:auto"] — for logs and
    reports. *)

val auto_chunk : jobs:int -> ?cost:(int -> float) -> int -> int
(** [auto_chunk ~jobs ?cost n] is the chunk size {!Chunked_auto}
    resolves to for an [n]-task grid on [jobs] workers: the largest
    [k <= max 1 (min 64 (n / (4 * jobs)))] such that no aligned run of
    [k] consecutive tasks costs more than [1 / (4 * jobs)] of the
    grid's total estimated cost — every worker keeps at least ~4
    claims' worth of rebalancing opportunity, and no single claim can
    hold a tail spike hostage. Uniform costs (or no [cost] at all)
    reach the cap; a grid whose tail spike alone exceeds the budget
    collapses to [1]. Deterministic; costs must be finite
    ([Invalid_argument] otherwise). *)

type stats = {
  actual_jobs : int;  (** worker count after clamping to the task count *)
  policy : string;  (** {!schedule_name} of the policy that ran *)
  chunk : int;
      (** consecutive claim positions per mutex acquisition: [1] for
          {!In_order} and {!Cost_sorted}, [k] for [Chunked k], and the
          {!auto_chunk}-resolved size for {!Chunked_auto} *)
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
          contention, the claiming-overhead signal chunked policies
          exist to shrink *)
  worker_tasks : int array;  (** per-worker claimed task count *)
}

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the sensible default for
    CPU-bound grids. *)

val exec :
  ?jobs:int ->
  ?schedule:schedule ->
  ?stats:(stats -> unit) ->
  ?on_task:(worker:int -> index:int -> wall_s:float -> unit) ->
  int ->
  (int -> 'a) ->
  'a array
(** [exec ~jobs ~schedule n f] computes [[| f 0; …; f (n-1) |]] on up to
    [jobs] domains (the calling domain participates, so [jobs = 2]
    spawns one extra domain). [jobs] defaults to [1] — no domains are
    spawned and the tasks run on the calling domain, still in the
    policy's claim order. [jobs] is clamped to [n]; [jobs < 1] or
    [n < 0] raise [Invalid_argument].

    [schedule] (default {!In_order}) fixes the claim order only; see the
    module docstring for the determinism guarantee. [stats] is invoked
    exactly once, after every worker has drained the queue and before
    any task failure is re-raised, with the per-worker busy-time and
    task-count breakdown of this execution — wall-clock values are the
    one scheduling-dependent output, which is why they travel through
    this side channel rather than the result array.

    [on_task] is the live-progress hook: called as
    [g ~worker ~index ~wall_s] immediately after each task finishes
    (succeeded or failed), from the worker's own domain — the callee
    must be thread-safe (the heartbeat emitter is mutex-protected).
    Call order across workers is scheduling-dependent; like [stats] it
    carries only wall-clock side-channel data and must not influence
    results.

    [f] must not rely on shared mutable state: task order within the
    grid is policy- and scheduling-dependent (only the {e placement} of
    results is fixed). *)
