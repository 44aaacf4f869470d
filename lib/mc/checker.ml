type metrics = {
  configurations : int;
  good : int;
  bad : int;
  trap : int;
  cycle : bool;
  worst_depth : int;
}

(* Greatest fixpoint of the good region: start from all agreeing
   configurations, repeatedly discard any whose successors can leave the
   set or break the increment. *)
let good_region space =
  let count = Space.config_count space in
  let good = Bytes.make count '\000' in
  let out = Array.make count (-1) in
  for cfg = 0 to count - 1 do
    match Space.agreeing_output space cfg with
    | Some v ->
      Bytes.set good cfg '\001';
      out.(cfg) <- v
    | None -> ()
  done;
  let c = (Space.spec space).Algo.Spec.c in
  let changed = ref true in
  while !changed do
    changed := false;
    for cfg = 0 to count - 1 do
      if Bytes.get good cfg = '\001' then begin
        let next_out = (out.(cfg) + 1) mod c in
        let ok =
          Space.successors_forall space cfg (fun cfg' ->
              Bytes.get good cfg' = '\001' && out.(cfg') = next_out)
        in
        if not ok then begin
          Bytes.set good cfg '\000';
          changed := true
        end
      end
    done
  done;
  good

(* The adversary's trap: the greatest W inside the bad region such that
   from every configuration of W some successor stays in W. Non-empty W
   means the adversary can postpone stabilisation forever. *)
let trap_region space good =
  let count = Space.config_count space in
  let trap = Bytes.make count '\000' in
  for cfg = 0 to count - 1 do
    if Bytes.get good cfg = '\000' then Bytes.set trap cfg '\001'
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for cfg = 0 to count - 1 do
      if Bytes.get trap cfg = '\001' then begin
        let can_stay =
          Space.successors_exists space cfg (fun cfg' ->
              Bytes.get trap cfg' = '\001')
        in
        if not can_stay then begin
          Bytes.set trap cfg '\000';
          changed := true
        end
      end
    done
  done;
  trap

(* Longest escape path through the (trap-free) bad region; every path is
   finite once the trap is empty, so no cycle handling is needed. *)
let bad_depths space good =
  let count = Space.config_count space in
  let depth = Array.make count (-1) in
  let rec visit cfg =
    if Bytes.get good cfg = '\001' then 0
    else if depth.(cfg) >= 0 then depth.(cfg)
    else begin
      let worst = ref 0 in
      Space.iter_successors space cfg (fun cfg' ->
          let d = visit cfg' in
          if d > !worst then worst := d);
      depth.(cfg) <- !worst + 1;
      depth.(cfg)
    end
  in
  let worst = ref 0 in
  for cfg = 0 to count - 1 do
    let d = visit cfg in
    if d > !worst then worst := d
  done;
  !worst

let evaluate space =
  let count = Space.config_count space in
  let good = good_region space in
  let good_count = ref 0 in
  Bytes.iter (fun b -> if b = '\001' then incr good_count) good;
  let trap = trap_region space good in
  let trap_count = ref 0 in
  Bytes.iter (fun b -> if b = '\001' then incr trap_count) trap;
  let cycle = !trap_count > 0 in
  let worst_depth = if cycle then -1 else bad_depths space good in
  {
    configurations = count;
    good = !good_count;
    bad = count - !good_count;
    trap = !trap_count;
    cycle;
    worst_depth;
  }

type report = {
  spec_name : string;
  faulty_sets : int;
  total_configurations : int;
  worst_stabilisation : int;
}

type failure = {
  fail_faulty : int list;
  fail_metrics : metrics;
  fail_reason : string;
}

let subsets n k =
  let rec go start k =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun first ->
          List.map (fun rest -> first :: rest) (go (first + 1) (k - 1)))
        (List.init (max 0 (n - start)) (fun i -> start + i))
  in
  go 0 k

let check ?max_configs ?faulty_sets ?(jobs = 1) (spec : 's Algo.Spec.t) =
  let sets =
    match faulty_sets with
    | Some s -> s
    | None ->
      List.concat_map
        (fun k -> subsets spec.Algo.Spec.n k)
        (List.init (spec.Algo.Spec.f + 1) (fun i -> i))
  in
  let sets = Array.of_list sets in
  let evaluate_set i =
    let space = Space.create_exn ?max_configs spec ~faulty:sets.(i) in
    evaluate space
  in
  (* Each faulty set gets its own [Space] (and successor memo table), so
     the per-set analyses are independent; folding the pre-sized result
     array in set order reports the same first failure as the sequential
     walk. With [jobs = 1] sets are evaluated lazily so the walk still
     stops at the first failure. *)
  let metrics_at =
    if jobs > 1 then
      let all =
        Stdx.Pool.exec ~jobs (Array.length sets) (fun ~worker:_ -> evaluate_set)
      in
      Array.get all
    else evaluate_set
  in
  let rec go i checked total worst =
    if i >= Array.length sets then
      Ok
        {
          spec_name = spec.Algo.Spec.name;
          faulty_sets = checked;
          total_configurations = total;
          worst_stabilisation = worst;
        }
    else begin
      let m = metrics_at i in
      if m.cycle then
        Error
          {
            fail_faulty = sets.(i);
            fail_metrics = m;
            fail_reason =
              (if m.good = 0 then "no good region exists"
               else "adversary can avoid the good region forever");
          }
      else
        go (i + 1) (checked + 1) (total + m.configurations)
          (max worst m.worst_depth)
    end
  in
  go 0 0 0 0

let check_to_string = function
  | Ok _ -> "verified"
  | Error f ->
    Printf.sprintf "FAILED for faulty set [%s]: %s (good %d / %d configs)"
      (String.concat ";" (List.map string_of_int f.fail_faulty))
      f.fail_reason f.fail_metrics.good f.fail_metrics.configurations
