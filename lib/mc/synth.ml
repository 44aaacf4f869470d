type family = {
  n : int;
  f : int;
  c : int;
  s : int;
  key_count : int;
}

(* Count vectors (c_0..c_{s-1}) with sum = total, lexicographically. *)
let rec multisets ~slots ~total =
  if slots = 1 then [ [ total ] ]
  else
    List.concat_map
      (fun first ->
        List.map
          (fun rest -> first :: rest)
          (multisets ~slots:(slots - 1) ~total:(total - first)))
      (List.init (total + 1) (fun i -> i))

let family ~n ~f ~c ~s =
  if n < 2 then invalid_arg "Synth.family: n < 2";
  if f < 0 then invalid_arg "Synth.family: f < 0";
  if c < 2 then invalid_arg "Synth.family: c < 2";
  if s < c then invalid_arg "Synth.family: s < c (output is state mod c)";
  let key_count = s * List.length (multisets ~slots:s ~total:(n - 1)) in
  { n; f; c; s; key_count }

type candidate = { fam : family; table : int array }

let multiset_rank fam =
  let tbl = Hashtbl.create 64 in
  List.iteri
    (fun i counts -> Hashtbl.replace tbl counts i)
    (multisets ~slots:fam.s ~total:(fam.n - 1));
  fun counts ->
    match Hashtbl.find_opt tbl counts with
    | Some i -> i
    | None -> invalid_arg "Synth: invalid multiset"

let to_spec cand =
  let fam = cand.fam in
  if Array.length cand.table <> fam.key_count then
    invalid_arg "Synth.to_spec: table has wrong size";
  Array.iter
    (fun entry ->
      if entry < 0 || entry >= fam.s then
        invalid_arg "Synth.to_spec: table entry out of range")
    cand.table;
  let rank = multiset_rank fam in
  let rank_count = fam.key_count / fam.s in
  {
    Algo.Spec.name =
      Printf.sprintf "synth(n=%d,f=%d,c=%d,s=%d)" fam.n fam.f fam.c fam.s;
    n = fam.n;
    f = fam.f;
    c = fam.c;
    deterministic = true;
    state_bits = Stdx.Imath.bits_for fam.s;
    equal_state = Int.equal;
    compare_state = Int.compare;
    pp_state = Format.pp_print_int;
    random_state = (fun rng -> Stdx.Rng.int rng fam.s);
    all_states = Some (List.init fam.s (fun i -> i));
    transition =
      (fun ~self ~rng:_ received ->
        let counts = Array.make fam.s 0 in
        Array.iteri
          (fun j st ->
            if j <> self then begin
              let st = if st >= 0 && st < fam.s then st else 0 in
              counts.(st) <- counts.(st) + 1
            end)
          received;
        let key =
          (received.(self) * rank_count) + rank (Array.to_list counts)
        in
        cand.table.(key));
    output = (fun ~self:_ st -> st mod fam.c);
    codec = None;
  }
  |> Algo.Spec.with_derived_codec

type outcome =
  | Found of candidate * Checker.report
  | Not_found_within_budget of { evaluated : int; best_score : int }

let all_fault_sets fam =
  List.concat_map
    (fun k -> Checker.subsets fam.n k)
    (List.init (fam.f + 1) (fun i -> i))

(* The trap sizes sum to 0 exactly for verified counters; smaller traps
   mean the adversary controls less of the configuration space, which
   gives the annealer a gradient to follow. *)
let score cand =
  let spec = to_spec cand in
  List.fold_left
    (fun acc faulty ->
      let space = Space.create_exn spec ~faulty in
      let m = Checker.evaluate space in
      acc + m.Checker.trap)
    0
    (all_fault_sets cand.fam)

let verify cand =
  match Checker.check (to_spec cand) with
  | Ok report -> Some report
  | Error _ -> None

let exhaustive ?(budget = 200_000) fam =
  let table = Array.make fam.key_count 0 in
  let rec bump i =
    if i < 0 then false
    else if table.(i) + 1 < fam.s then begin
      table.(i) <- table.(i) + 1;
      true
    end
    else begin
      table.(i) <- 0;
      bump (i - 1)
    end
  in
  let rec go evaluated best =
    if evaluated >= budget then
      Not_found_within_budget { evaluated; best_score = best }
    else begin
      let cand = { fam; table = Array.copy table } in
      let sc = score cand in
      if sc = 0 then
        match verify cand with
        | Some report -> Found (cand, report)
        | None -> assert false
      else if bump (fam.key_count - 1) then go (evaluated + 1) (min best sc)
      else Not_found_within_budget { evaluated = evaluated + 1; best_score = min best sc }
    end
  in
  go 0 max_int

let anneal ?(budget = 20_000) ?(restarts = 5) ~seed fam =
  let rng = Stdx.Rng.create seed in
  let evaluated = ref 0 in
  let best_score = ref max_int in
  let result = ref None in
  let chain_budget = max 1 (budget / max 1 restarts) in
  let run_chain () =
    let table =
      Array.init fam.key_count (fun _ -> Stdx.Rng.int rng fam.s)
    in
    let current = ref (score { fam; table }) in
    incr evaluated;
    best_score := min !best_score !current;
    let temperature = ref 8.0 in
    let steps = ref 0 in
    while !result = None && !steps < chain_budget && !current > 0 do
      incr steps;
      let key = Stdx.Rng.int rng fam.key_count in
      let old = table.(key) in
      let fresh = Stdx.Rng.int rng fam.s in
      if fresh <> old then begin
        table.(key) <- fresh;
        let sc = score { fam; table } in
        incr evaluated;
        let delta = float_of_int (sc - !current) in
        let accept =
          delta <= 0.0
          || Stdx.Rng.float rng < Float.exp (-.delta /. !temperature)
        in
        if accept then current := sc else table.(key) <- old;
        best_score := min !best_score sc
      end;
      temperature := Float.max 0.05 (!temperature *. 0.9995)
    done;
    if !current = 0 then begin
      let cand = { fam; table = Array.copy table } in
      match verify cand with
      | Some report -> result := Some (Found (cand, report))
      | None -> assert false
    end
  in
  let chains = ref 0 in
  while !result = None && !chains < restarts && !evaluated < budget do
    incr chains;
    run_chain ()
  done;
  match !result with
  | Some found -> found
  | None ->
    Not_found_within_budget { evaluated = !evaluated; best_score = !best_score }
