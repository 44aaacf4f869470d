type 's t = {
  spec : 's Algo.Spec.t;
  faulty : int list;
  correct : int array;
  states : 's array;  (** index -> state *)
  state_count : int;
  config_count : int;
  dummy_rng : Stdx.Rng.t;
  succ_memo : (int, int list array) Hashtbl.t;
}

let spec t = t.spec
let config_count t = t.config_count

let create ?(max_configs = 2_000_000) (spec : 's Algo.Spec.t) ~faulty =
  match spec.Algo.Spec.all_states with
  | None -> Error "state space is not enumerable (all_states = None)"
  | Some all ->
    if not spec.Algo.Spec.deterministic then
      Error "model checking requires a deterministic algorithm"
    else begin
      let n = spec.Algo.Spec.n in
      let sorted_faulty = List.sort_uniq Int.compare faulty in
      if List.length sorted_faulty <> List.length faulty then
        Error "duplicate faulty ids"
      else if List.exists (fun v -> v < 0 || v >= n) faulty then
        Error "faulty id out of range"
      else if List.length faulty > spec.Algo.Spec.f then
        Error "faulty set exceeds resilience"
      else begin
        let states = Array.of_list all in
        Array.sort spec.Algo.Spec.compare_state states;
        let s = Array.length states in
        let correct =
          Array.of_list
            (List.filter
               (fun v -> not (List.mem v sorted_faulty))
               (List.init n (fun i -> i)))
        in
        let nv = Array.length correct in
        let count =
          try Stdx.Imath.pow s nv with Failure _ -> max_configs + 1
        in
        if count > max_configs then
          Error
            (Printf.sprintf "too many configurations: %d^%d > %d" s nv
               max_configs)
        else
          Ok
            {
              spec;
              faulty = sorted_faulty;
              correct;
              states;
              state_count = s;
              config_count = count;
              dummy_rng = Stdx.Rng.create 0;
              succ_memo = Hashtbl.create 1024;
            }
      end
    end

let create_exn ?max_configs spec ~faulty =
  match create ?max_configs spec ~faulty with
  | Ok t -> t
  | Error msg -> invalid_arg ("Space.create: " ^ msg)

let index_of_state t s =
  (* binary search over the sorted state table *)
  let cmp = t.spec.Algo.Spec.compare_state in
  let rec go lo hi =
    if lo >= hi then invalid_arg "Space.index_of_state: unknown state"
    else
      let mid = (lo + hi) / 2 in
      let c = cmp s t.states.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length t.states)

let decode t cfg =
  let nv = Array.length t.correct in
  let idx = Array.make nv 0 in
  let rec go p rest =
    if p < nv then begin
      idx.(p) <- rest mod t.state_count;
      go (p + 1) (rest / t.state_count)
    end
  in
  go 0 cfg;
  idx

let encode t idx =
  let nv = Array.length t.correct in
  let rec go p acc =
    if p < 0 then acc else go (p - 1) ((acc * t.state_count) + idx.(p))
  in
  go (nv - 1) 0

let outputs t cfg =
  let idx = decode t cfg in
  Array.mapi
    (fun p i -> t.spec.Algo.Spec.output ~self:t.correct.(p) t.states.(i))
    idx

let agreeing_output t cfg =
  let outs = outputs t cfg in
  if Array.length outs = 0 then None
  else begin
    let v = outs.(0) in
    if Array.for_all (fun o -> o = v) outs then Some v else None
  end

(* All states node [v] can be driven to from configuration [cfg]: iterate
   over every assignment of Byzantine messages to [v]. *)
let node_successors t cfg_idx v =
  let n = t.spec.Algo.Spec.n in
  let received = Array.make n t.states.(0) in
  Array.iteri (fun p u -> received.(u) <- t.states.(cfg_idx.(p))) t.correct;
  let faulty = Array.of_list t.faulty in
  let nf = Array.length faulty in
  let byz = Array.make nf 0 in
  let results = ref [] in
  let add s =
    let i = index_of_state t s in
    if not (List.mem i !results) then results := i :: !results
  in
  let rec enumerate pos =
    if pos = nf then begin
      Array.iteri (fun bi u -> received.(u) <- t.states.(byz.(bi))) faulty;
      add
        (t.spec.Algo.Spec.transition ~self:v ~rng:t.dummy_rng received)
    end
    else
      for choice = 0 to t.state_count - 1 do
        byz.(pos) <- choice;
        enumerate (pos + 1)
      done
  in
  enumerate 0;
  List.sort Int.compare !results

let successor_sets t cfg =
  match Hashtbl.find_opt t.succ_memo cfg with
  | Some sets -> sets
  | None ->
    let idx = decode t cfg in
    let sets = Array.map (fun v -> node_successors t idx v) t.correct in
    Hashtbl.replace t.succ_memo cfg sets;
    sets

(* Depth-first product enumeration with early exit. [combine] returns
   [true] to continue, [false] to abort the walk. *)
let walk_successors t cfg visit =
  let sets = successor_sets t cfg in
  let nv = Array.length sets in
  let choice = Array.make nv 0 in
  let rec go p =
    if p = nv then visit (encode t choice)
    else
      List.for_all
        (fun s ->
          choice.(p) <- s;
          go (p + 1))
        sets.(p)
  in
  ignore (go 0)

let successors_forall t cfg pred =
  let ok = ref true in
  walk_successors t cfg (fun cfg' ->
      if pred cfg' then true
      else begin
        ok := false;
        false
      end);
  !ok

let successors_exists t cfg pred =
  let found = ref false in
  walk_successors t cfg (fun cfg' ->
      if pred cfg' then begin
        found := true;
        false
      end
      else true);
  !found

let iter_successors t cfg f =
  walk_successors t cfg (fun cfg' ->
      f cfg';
      true)

