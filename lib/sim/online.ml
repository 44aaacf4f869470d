type verdict = Stabilized of int | Not_stabilized

let equal_verdict a b =
  match (a, b) with
  | Stabilized x, Stabilized y -> x = y
  | Not_stabilized, Not_stabilized -> true
  | Stabilized _, Not_stabilized | Not_stabilized, Stabilized _ -> false

let pp_verdict ppf = function
  | Stabilized t -> Format.fprintf ppf "stabilized@%d" t
  | Not_stabilized -> Format.fprintf ppf "not-stabilized"

type t = {
  c : int;
  mutable correct : int array;
  min_suffix : int;
  window : int;
  mutable rounds_seen : int;  (* rows observed so far; last round = rounds_seen - 1 *)
  mutable seam : int;  (* earliest t with clean counting steps over [t, last) *)
  mutable last_agree : bool;
  mutable last_value : int;  (* canonical correct output at the last row *)
  (* Sliding window of the last [window] output rows as a preallocated
     ring (rows sized on first observation): [observe] runs once per
     simulated round on the engine's hot path, so it must not allocate.
     [ring_head] is the slot of the newest row, [ring_count] the number
     of rows stored so far. *)
  mutable ring : int array array;
  ring_rounds : int array;
  mutable ring_head : int;
  mutable ring_count : int;
}

let create ?window ~c ~correct ~min_suffix () =
  if c < 1 then invalid_arg "Online.create: c < 1";
  if min_suffix < 1 then invalid_arg "Online.create: min_suffix < 1";
  let window =
    match window with
    | None -> 8
    | Some w -> if w < 1 then invalid_arg "Online.create: window < 1" else w
  in
  {
    c;
    correct = Array.of_list correct;
    min_suffix;
    window;
    rounds_seen = 0;
    seam = 0;
    last_agree = true;
    last_value = 0;
    ring = [||];
    ring_rounds = Array.make window 0;
    ring_head = window - 1;
    ring_count = 0;
  }

let observe t ~round row =
  if round <> t.rounds_seen then
    invalid_arg
      (Printf.sprintf "Online.observe: expected round %d, got %d" t.rounds_seen
         round);
  (* Agreement among correct nodes and their common value; vacuously true
     (with a dummy value) when no node is correct, matching
     [Stabilise.count_ok_step] on an empty correct set.
     A while-loop, not [Array.for_all] — the predicate closure would
     allocate every round. *)
  let nc = Array.length t.correct in
  let v = if nc = 0 then 0 else row.(t.correct.(0)) in
  let agree =
    let ok = ref true in
    let i = ref 1 in
    while !ok && !i < nc do
      if row.(t.correct.(!i)) <> v then ok := false else incr i
    done;
    !ok
  in
  if t.rounds_seen > 0 then begin
    let clean =
      nc = 0 || (t.last_agree && agree && v = (t.last_value + 1) mod t.c)
    in
    if not clean then t.seam <- round
  end;
  t.last_agree <- agree;
  t.last_value <- v;
  t.rounds_seen <- t.rounds_seen + 1;
  if Array.length t.ring = 0 then
    t.ring <- Array.init t.window (fun _ -> Array.make (Array.length row) 0);
  t.ring_head <- (t.ring_head + 1) mod t.window;
  (* A typed copy: [Array.blit] would [caml_modify] every slot once the
     ring lives in the major heap. *)
  let slot = t.ring.(t.ring_head) in
  for v = 0 to Array.length row - 1 do
    slot.(v) <- row.(v)
  done;
  t.ring_rounds.(t.ring_head) <- round;
  if t.ring_count < t.window then t.ring_count <- t.ring_count + 1

(* Moving the seam to the next expected round discards the entire clean
   suffix observed so far: until that round is observed, [verdict] sees
   [last - seam = -1 < min_suffix] and reports [Not_stabilized], and the
   stale [last_agree]/[last_value] pair can only mark the step {e into}
   the next row as dirty — which re-sets the seam to the same round. *)
let reset ?correct t =
  (match correct with
  | Some c -> t.correct <- Array.of_list c
  | None -> ());
  t.seam <- t.rounds_seen

let verdict t =
  if t.rounds_seen = 0 then Not_stabilized
  else begin
    let last = t.rounds_seen - 1 in
    let agree_last = Array.length t.correct = 0 || t.last_agree in
    if agree_last && last - t.seam >= t.min_suffix then Stabilized t.seam
    else Not_stabilized
  end

let stabilised t =
  match verdict t with Stabilized _ -> true | Not_stabilized -> false

(* Materialised oldest-first; called once per run, so allocating copies
   here (rather than per observed round) is the point of the ring. *)
let recent t =
  let out = ref [] in
  for i = 0 to t.ring_count - 1 do
    let slot = (t.ring_head - i + (2 * t.window)) mod t.window in
    out := (t.ring_rounds.(slot), Array.copy t.ring.(slot)) :: !out
  done;
  !out
