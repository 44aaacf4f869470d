(* Work-stealing-free domain pool: a claim-order array behind an atomic
   cursor plus a pre-sized result array make the output independent of
   both the worker count and the claim order — the order permutes only
   which index a free worker picks up next, never where results land. *)

let recommended_jobs () = Domain.recommended_domain_count ()

let workers ~jobs n =
  if n < 0 then invalid_arg "Pool.workers: negative task count";
  if jobs < 1 then invalid_arg "Pool.workers: jobs must be >= 1";
  min jobs (max 1 n)

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

let exec ?(jobs = 1) ?cost n f =
  let jobs = workers ~jobs n in
  let order = claim_order ?cost n in
  (* Result and failure slots are pre-sized; slot [i] is written only by
     the worker that claimed index [i], so distinct slots never race. *)
  let results = Array.make n None in
  let failures = Array.make n None in
  let next = Atomic.make 0 in
  let rec worker w =
    let pos = Atomic.fetch_and_add next 1 in
    if pos < n then begin
      let i = order.(pos) in
      (match f ~worker:w i with
      | v -> results.(i) <- Some v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        failures.(i) <- Some (e, bt));
      worker w
    end
  in
  let spawned = Array.init (jobs - 1) (fun d -> Domain.spawn (fun () -> worker (d + 1))) in
  worker 0;
  Array.iter Domain.join spawned;
  (* Deterministic error propagation: the lowest failing task index
     wins, whatever order the tasks executed in. *)
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    failures;
  Array.map (function Some v -> v | None -> assert false) results
