type packed_boost = Packed_boost : 's Boost.t -> packed_boost

let base_spec (tower : Plan.tower) =
  if tower.Plan.base_n = 1 then
    Algo.Spec.Packed (Trivial.single ~c:tower.Plan.base_c)
  else
    Algo.Spec.Packed
      (Trivial.follow_leader ~n:tower.Plan.base_n ~c:tower.Plan.base_c)

let boost_level (Algo.Spec.Packed inner) (report : Plan.level_report) =
  let b =
    Boost.construct ~inner ~k:report.Plan.k ~big_f:report.Plan.big_f
      ~big_c:report.Plan.c
  in
  Packed_boost b

let tower_boost (tower : Plan.tower) =
  let rec go inner = function
    | [] -> invalid_arg "Build.tower_boost: empty tower"
    | [ last ] -> boost_level inner last
    | level :: rest ->
      let (Packed_boost b) = boost_level inner level in
      go (Algo.Spec.Packed b.Boost.spec) rest
  in
  go (base_spec tower) tower.Plan.levels

let tower (t : Plan.tower) =
  let (Packed_boost b) = tower_boost t in
  Algo.Spec.Packed b.Boost.spec

let describe (t : Plan.tower) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "base: trivial counter, n=%d, c=%d, T=%d, S=%d bits\n"
       t.Plan.base_n t.Plan.base_c t.Plan.base_time
       (Stdx.Imath.bits_for t.Plan.base_c));
  List.iter
    (fun (r : Plan.level_report) ->
      Buffer.add_string buf
        (Printf.sprintf
           "level %d: k=%d  ->  A(n=%d, F=%d, c=%d)   T<=%d  S=%d bits\n"
           r.Plan.index r.Plan.k r.Plan.n r.Plan.big_f r.Plan.c
           r.Plan.time_bound r.Plan.state_bits))
    t.Plan.levels;
  Buffer.contents buf
