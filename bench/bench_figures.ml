(* Experiments F1 and F2: the paper's two figures, regenerated from live
   runs as ASCII timelines. *)

(* Figure 1: leader pointers b[.] of the blocks eventually coincide on a
   common value beta for at least tau consecutive rounds, even though the
   block counters cycle at different speeds. *)
let figure1 () =
  Bench_common.section
    "Figure 1 - leader pointers of non-faulty blocks coincide";
  let boosted = Bench_common.a12_3 ~c:8 in
  let spec = boosted.Counting.Boost.spec in
  let tau = boosted.Counting.Boost.params.Counting.Boost.tau in
  let window_from = 2500 and window_to = 2740 in
  let votes = ref [] in
  let probe ~round ~states =
    if round >= window_from && round < window_to then begin
      let p = Counting.Boost.probe_states boosted states in
      votes := (round, Array.copy p.Counting.Boost.block_votes) :: !votes
    end
  in
  let run =
    Sim.Network.run ~spec ~adversary:(Sim.Adversary.random_equivocate ())
      ~faulty:[ 9 ] ~rounds:window_to ~seed:12 ()
  in
  Array.iteri (fun round states -> probe ~round ~states) run.Sim.Network.states;
  let votes = List.rev !votes in
  let k = boosted.Counting.Boost.params.Counting.Boost.k in
  Printf.printf
    "Block pointer timeline (rounds %d..%d, one column per round, A(12,3),\n\
     one faulty node in block 2, random equivocation):\n\n"
    window_from (window_to - 1);
  for block = 0 to k - 1 do
    let line =
      String.concat ""
        (List.map (fun (_, bv) -> string_of_int bv.(block)) votes)
    in
    Printf.printf "block %d: %s\n" block line
  done;
  (* detect and report the common windows, the blue segments of Figure 1 *)
  let common =
    List.map
      (fun (round, bv) ->
        (round, if Array.for_all (fun b -> b = bv.(0)) bv then Some bv.(0) else None))
      votes
  in
  let segments = ref [] in
  let current = ref None in
  List.iter
    (fun (round, c) ->
      match (c, !current) with
      | Some b, Some (b', start, _) when b = b' -> current := Some (b', start, round)
      | Some b, _ ->
        (match !current with
        | Some seg -> segments := seg :: !segments
        | None -> ());
        current := Some (b, round, round)
      | None, Some seg ->
        segments := seg :: !segments;
        current := None
      | None, None -> ())
    common;
  (match !current with Some seg -> segments := seg :: !segments | None -> ());
  let segments = List.rev !segments in
  Printf.printf "\ncommon-pointer windows (Lemma 2 needs length >= tau = %d):\n" tau;
  List.iter
    (fun (beta, start, stop) ->
      Printf.printf "  beta=%d rounds %d..%d (length %d)%s\n" beta start stop
        (stop - start + 1)
        (if stop - start + 1 >= tau then "  <-- long enough" else ""))
    segments;
  let longest =
    List.fold_left (fun acc (_, s, e) -> max acc (e - s + 1)) 0 segments
  in
  Printf.printf "paper: windows of >= tau rounds exist; measured longest = %d (tau = %d)\n"
    longest tau

(* Figure 2: the recursion A(4,1) -> A(12,3) -> A(36,7), printed as the
   planner's exact parameters plus a live fault-injected run of the top
   level. *)
let figure2 () =
  Bench_common.section "Figure 2 - recursive construction A(4,1) -> A(12,3) -> A(36,7)";
  let tower = Counting.Plan.plan_tower_exn ~target_c:2 Counting.Plan.figure2_levels in
  print_string (Counting.Build.describe tower);
  let t =
    Stdx.Table.create [ "level"; "k"; "N"; "F"; "modulus"; "T bound"; "S bits" ]
  in
  List.iter
    (fun (l : Counting.Plan.level_report) ->
      Stdx.Table.add_row t
        [
          string_of_int l.Counting.Plan.index;
          string_of_int l.Counting.Plan.k;
          string_of_int l.Counting.Plan.n;
          string_of_int l.Counting.Plan.big_f;
          string_of_int l.Counting.Plan.c;
          string_of_int l.Counting.Plan.time_bound;
          string_of_int l.Counting.Plan.state_bits;
        ])
    tower.Counting.Plan.levels;
  Stdx.Table.print t;
  let (Algo.Spec.Packed spec) = Counting.Build.tower tower in
  (* the figure marks faulty blocks red: we make block 0 of the top level
     entirely faulty (4 nodes) plus scattered nodes, 7 total = F *)
  let faulty = [ 0; 1; 2; 3; 13; 22; 31 ] in
  Printf.printf
    "\nlive run: A(36,7) with 7 Byzantine nodes (block {0..3} entirely faulty,\n\
     plus nodes 13, 22, 31), split-brain adversary, seed 1:\n";
  let run =
    Sim.Network.run ~spec ~adversary:(Sim.Adversary.split_brain ()) ~faulty
      ~rounds:6000 ~seed:1 ()
  in
  (match Sim.Stabilise.of_run ~min_suffix:64 run with
  | Sim.Stabilise.Stabilized t ->
    Printf.printf "  stabilised at round %d (Theorem 1 bound: %d)\n" t
      (Counting.Plan.top tower).Counting.Plan.time_bound
  | Sim.Stabilise.Not_stabilized -> Printf.printf "  DID NOT STABILISE\n");
  (* reproduce the intro example's presentation: a few rows around the
     stabilisation point *)
  (match Sim.Stabilise.of_run ~min_suffix:64 run with
  | Sim.Stabilise.Stabilized t0 ->
    let show r =
      let outs = Sim.Network.output_row run ~round:r in
      let cells =
        List.map
          (fun v ->
            if List.mem v faulty then "*" else string_of_int outs.(v))
          [ 4; 5; 12; 20; 28; 35 ]
      in
      Printf.printf "  round %5d: nodes (4,5,12,20,28,35) output %s\n" r
        (String.concat " " cells)
    in
    List.iter show [ max 0 (t0 - 2); t0; t0 + 1; t0 + 2; t0 + 3 ]
  | Sim.Stabilise.Not_stabilized -> ())
