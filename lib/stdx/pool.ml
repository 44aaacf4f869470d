(* Work-stealing-free domain pool: a claim-order array behind a mutex
   plus a pre-sized result array make the output independent of both the
   worker count and the claim order — the order permutes only which
   index a free worker picks up next, never where results land. *)

let recommended_jobs () = Domain.recommended_domain_count ()

type stats = {
  actual_jobs : int;
  wall_s : float;
  worker_busy_s : float array;
  worker_claim_s : float array;
  worker_tasks : int array;
}

(* The claim order: a permutation of [0, n) that workers consume from a
   shared cursor. LPT — decreasing estimated cost, ties broken by lower
   index, so no cost (or a constant one) is plain index order. *)
let claim_order ?cost n =
  let order = Array.init n (fun i -> i) in
  Option.iter
    (fun cost ->
      let costs =
        Array.init n (fun i ->
            let c = cost i in
            if not (Float.is_finite c) then
              invalid_arg "Pool.exec: cost must be finite";
            c)
      in
      Array.sort
        (fun a b ->
          match Float.compare costs.(b) costs.(a) with
          | 0 -> Int.compare a b
          | r -> r)
        order)
    cost;
  order

let exec ?(jobs = 1) ?cost ?stats ?on_task n f =
  if n < 0 then invalid_arg "Pool.exec: negative task count";
  if jobs < 1 then invalid_arg "Pool.exec: jobs must be >= 1";
  let jobs = min jobs (max 1 n) in
  let order = claim_order ?cost n in
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
  (* Claim the next position of the order array. Contention on the
     cursor mutex is charged to the claiming worker (elapsed clamped at
     0 — the clock can step backwards). *)
  let claimed_at = Array.make jobs 0.0 in
  let claim w =
    let t0 = if timing then Unix.gettimeofday () else 0.0 in
    Mutex.lock lock;
    let pos = !next in
    if pos < n then next := pos + 1;
    Mutex.unlock lock;
    if timing then begin
      let t1 = Unix.gettimeofday () in
      claimed_at.(w) <- t1;
      claiming.(w) <- claiming.(w) +. Float.max 0.0 (t1 -. t0)
    end;
    if pos < n then Some order.(pos) else None
  in
  let rec worker w =
    match claim w with
    | None -> ()
    | Some i ->
      (* The task starts when its claim ends: one clock read for both. *)
      let t0 = claimed_at.(w) in
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
      tasks.(w) <- tasks.(w) + 1;
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
        wall_s = Float.max 0.0 (Unix.gettimeofday () -. t_start);
        worker_busy_s = busy;
        worker_claim_s = claiming;
        worker_tasks = tasks;
      }
  | None -> ());
  (* Deterministic error propagation: the lowest failing task index
     wins, whatever order the tasks executed in. *)
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    failures;
  Array.map (function Some v -> v | None -> assert false) results
