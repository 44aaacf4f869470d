(* Work-stealing-free domain pool: a claim-order array behind a mutex
   plus a pre-sized result array make the output independent of both the
   worker count and the scheduling policy — policies permute only the
   order in which indices are handed out, never where results land. *)

let recommended_jobs () = Domain.recommended_domain_count ()

type schedule =
  | In_order
  | Cost_sorted of (int -> float)
  | Chunked of int
  | Chunked_auto of (int -> float) option

let schedule_name = function
  | In_order -> "inorder"
  | Cost_sorted _ -> "cost"
  | Chunked k -> Printf.sprintf "chunk:%d" k
  | Chunked_auto _ -> "chunk:auto"

type stats = {
  actual_jobs : int;
  policy : string;
  chunk : int;
  wall_s : float;
  worker_busy_s : float array;
  worker_claim_s : float array;
  worker_tasks : int array;
}

(* Chunk-size tuning from the cost model. A chunk is claimed whole, so
   its cost sum is a lower bound on one worker's tail latency: the
   largest acceptable chunk is the largest [k] (capped so every worker
   still sees several claims) whose costliest aligned run of [k] tasks
   stays within a [1 / (4 * jobs)] slice of the grid's total cost — the
   same slice the cap grants a uniform grid, so constant costs reach
   the cap exactly. On a
   uniform grid every chunk fits and [k] hits the cap (claiming
   overhead amortised); on a skewed grid the expensive tail forces [k]
   down — in the limit to 1, where no chunk can bundle two spikes. *)
let auto_chunk ~jobs ?cost n =
  if n <= 0 then 1
  else begin
    let jobs = max 1 (min jobs n) in
    let cap = max 1 (min 64 (n / (jobs * 4))) in
    match cost with
    | None -> cap
    | Some cost ->
      let costs =
        Array.init n (fun i ->
            let c = cost i in
            if not (Float.is_finite c) then
              invalid_arg "Pool.auto_chunk: cost must be finite";
            c)
      in
      let total = Array.fold_left ( +. ) 0.0 costs in
      let budget = total /. float_of_int (4 * jobs) in
      (* Largest k <= cap whose costliest aligned chunk fits; chunks are
         aligned because [exec] claims fixed-size runs from position 0. *)
      let fits k =
        let ok = ref true in
        let pos = ref 0 in
        while !ok && !pos < n do
          let hi = min n (!pos + k) in
          let s = ref 0.0 in
          for p = !pos to hi - 1 do
            s := !s +. costs.(p)
          done;
          if !s > budget then ok := false;
          pos := hi
        done;
        !ok
      in
      let k = ref cap in
      while !k > 1 && not (fits !k) do
        decr k
      done;
      !k
  end

(* The claim order: a permutation of [0, n) that workers consume from a
   shared cursor. [Cost_sorted] is LPT — decreasing estimated cost, ties
   broken by lower index, so a constant cost function reproduces
   [In_order] exactly (the sort below is total and deterministic). *)
let claim_order ~schedule n =
  match schedule with
  | In_order | Chunked _ | Chunked_auto _ -> Array.init n (fun i -> i)
  | Cost_sorted cost ->
    let costs =
      Array.init n (fun i ->
          let c = cost i in
          if not (Float.is_finite c) then
            invalid_arg "Pool.exec: Cost_sorted cost must be finite";
          c)
    in
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        match Float.compare costs.(b) costs.(a) with
        | 0 -> Int.compare a b
        | r -> r)
      order;
    order

let exec ?(jobs = 1) ?(schedule = In_order) ?stats ?on_task n f =
  if n < 0 then invalid_arg "Pool.exec: negative task count";
  if jobs < 1 then invalid_arg "Pool.exec: jobs must be >= 1";
  (match schedule with
  | Chunked k when k < 1 -> invalid_arg "Pool.exec: chunk size must be >= 1"
  | _ -> ());
  let jobs = min jobs (max 1 n) in
  let order = claim_order ~schedule n in
  let chunk =
    match schedule with
    | Chunked k -> k
    | Chunked_auto cost -> auto_chunk ~jobs ?cost n
    | In_order | Cost_sorted _ -> 1
  in
  (* Result and failure slots are pre-sized; slot [i] is written only by
     the worker that claimed index [i], so distinct slots never race. *)
  let results = Array.make n None in
  let failures = Array.make n None in
  let lock = Mutex.create () in
  let next = ref 0 in
  let timing = stats <> None || on_task <> None in
  let busy = Array.make jobs 0.0 in
  let claiming = Array.make jobs 0.0 in
  let tasks = Array.make jobs 0 in
  (* Claim [chunk] positions of the order array at once; returns the
     half-open position range. Contention on the cursor mutex is charged
     to the claiming worker (elapsed clamped at 0 — the clock can step
     backwards). *)
  let claim w =
    let t0 = if timing then Unix.gettimeofday () else 0.0 in
    Mutex.lock lock;
    let lo = !next in
    let hi = min n (lo + chunk) in
    next := hi;
    Mutex.unlock lock;
    if timing then
      claiming.(w) <- claiming.(w) +. Float.max 0.0 (Unix.gettimeofday () -. t0);
    if lo < hi then Some (lo, hi) else None
  in
  let rec worker w =
    match claim w with
    | None -> ()
    | Some (lo, hi) ->
      for pos = lo to hi - 1 do
        let i = order.(pos) in
        let t0 = if timing then Unix.gettimeofday () else 0.0 in
        (match f i with
        | v -> results.(i) <- Some v
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          failures.(i) <- Some (e, bt));
        if timing then begin
          let d = Float.max 0.0 (Unix.gettimeofday () -. t0) in
          busy.(w) <- busy.(w) +. d;
          match on_task with
          | Some g -> g ~worker:w ~index:i ~wall_s:d
          | None -> ()
        end;
        tasks.(w) <- tasks.(w) + 1
      done;
      worker w
  in
  let t_start = if timing then Unix.gettimeofday () else 0.0 in
  let spawned = Array.init (jobs - 1) (fun d -> Domain.spawn (fun () -> worker (d + 1))) in
  worker 0;
  Array.iter Domain.join spawned;
  (match stats with
  | Some k ->
    k
      {
        actual_jobs = jobs;
        policy = schedule_name schedule;
        chunk;
        wall_s = Float.max 0.0 (Unix.gettimeofday () -. t_start);
        worker_busy_s = busy;
        worker_claim_s = claiming;
        worker_tasks = tasks;
      }
  | None -> ());
  (* Deterministic error propagation: the lowest failing task index
     wins, whatever order the policy executed the tasks in. *)
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    failures;
  Array.map (function Some v -> v | None -> assert false) results
