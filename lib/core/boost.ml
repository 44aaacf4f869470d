type 's state = { inner : 's; a : int option; d : bool }

type params = {
  k : int;
  m : int;
  n_inner : int;
  f_inner : int;
  big_n : int;
  big_f : int;
  big_c : int;
  tau : int;
  time_overhead : int;
  required_inner_c : int;
}

let plan ~k ~big_f ~big_c ~n_inner ~f_inner ~inner_c =
  let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  if k < 3 then fail "k = %d < 3 blocks" k
  else if n_inner < 1 then fail "inner n = %d < 1" n_inner
  else if f_inner < 0 then fail "inner f = %d < 0" f_inner
  else if big_f < 0 then fail "F = %d < 0" big_f
  else if big_c < 2 then fail "C = %d; Theorem 1 needs C > 1" big_c
  else begin
    let m = (k + 1) / 2 in
    let big_n = k * n_inner in
    if big_f >= (f_inner + 1) * m then
      fail "F = %d violates F < (f+1)*ceil(k/2) = %d" big_f ((f_inner + 1) * m)
    else if 3 * big_f >= big_n then
      fail "F = %d violates F < N/3 with N = %d" big_f big_n
    else begin
      let tau = 3 * (big_f + 2) in
      match Stdx.Imath.pow (2 * m) k with
      | exception Failure _ -> fail "(2m)^k overflows: k = %d, m = %d" k m
      | window ->
        let required_inner_c = tau * window in
        if required_inner_c <= 0 then
          fail "3(F+2)(2m)^k overflows: F = %d, k = %d" big_f k
        else if inner_c mod required_inner_c <> 0 then
          fail "inner c = %d is not a multiple of 3(F+2)(2m)^k = %d" inner_c
            required_inner_c
        else
          Ok
            {
              k;
              m;
              n_inner;
              f_inner;
              big_n;
              big_f;
              big_c;
              tau;
              time_overhead = required_inner_c;
              required_inner_c;
            }
    end
  end

let plan_exn ~k ~big_f ~big_c ~n_inner ~f_inner ~inner_c =
  match plan ~k ~big_f ~big_c ~n_inner ~f_inner ~inner_c with
  | Ok p -> p
  | Error msg -> invalid_arg ("Boost.plan: " ^ msg)

type 's t = {
  spec : 's state Algo.Spec.t;
  params : params;
  inner : 's Algo.Spec.t;
  view_params : Counter_view.params array;
}

let node_of p ~block ~slot = (block * p.n_inner) + slot

let block_of p v = (v / p.n_inner, v mod p.n_inner)

let time_bound ~inner_time p = inner_time + p.time_overhead

(* The (r, y, b) view of node u's block counter, as decoded from the state
   it broadcast. Block i of the construction runs A_i = A mod c_i; the
   modulo reduction happens inside Counter_view.of_value. *)
let view_of_received (inner : 's Algo.Spec.t) view_params p ~u inner_state =
  let block, slot = block_of p u in
  let value = inner.Algo.Spec.output ~self:slot inner_state in
  Counter_view.of_value view_params.(block) value

let compute_vote (inner : 's Algo.Spec.t) view_params p received_inner =
  let views =
    Array.mapi
      (fun u s -> view_of_received inner view_params p ~u s)
      received_inner
  in
  (* b^i: the leader pointer block i supports (majority within block i). *)
  let block_votes =
    Array.init p.k (fun i ->
        let ballots =
          Array.init p.n_inner (fun j ->
              views.(node_of p ~block:i ~slot:j).Counter_view.b)
        in
        Algo.Vote.majority_int ~default:0 ballots)
  in
  (* B: the leader block supported by a majority of blocks. *)
  let leader = Algo.Vote.majority_int ~default:0 block_votes in
  (* R: the round counter of block B, read by majority inside block B. *)
  let r_ballots =
    Array.init p.n_inner (fun j ->
        views.(node_of p ~block:leader ~slot:j).Counter_view.r)
  in
  let r_value = Algo.Vote.majority_int ~default:0 r_ballots in
  (views, block_votes, leader, r_value)

type ablation = Short_window of int | Pointer_base_m | Naive_phase_king

(* Phase king with thresholds an adversary can fake: simple majority in
   place of N - F and "one vote" in place of F + 1 (ablation A3). *)
let naive_phase_king_step ~cap ~big_n ~index ~(self : Phase_king.reg) ~received
    =
  let clamp = function
    | Some x when x >= 0 && x < cap -> Some x
    | Some _ | None -> None
  in
  let received = Array.map clamp received in
  let majority = (big_n / 2) + 1 in
  let count v =
    Array.fold_left (fun acc x -> if x = v then acc + 1 else acc) 0 received
  in
  let increment = Phase_king.increment ~cap in
  let ell = index / 3 in
  match index mod 3 with
  | 0 ->
    let a = if count self.Phase_king.a < majority then None else self.Phase_king.a in
    { Phase_king.a = increment a; d = self.Phase_king.d }
  | 1 ->
    let d = count self.Phase_king.a >= majority in
    let rec find j =
      if j >= cap then None
      else if count (Some j) >= 1 then Some j
      else find (j + 1)
    in
    { Phase_king.a = increment (find 0); d }
  | _ ->
    let a =
      if self.Phase_king.a = None || not self.Phase_king.d then
        let imposed =
          match received.(ell) with None -> cap | Some x -> min cap x
        in
        Some ((imposed + 1) mod cap)
      else increment self.Phase_king.a
    in
    { Phase_king.a; d = true }

(* The flat kernel's lookup tables: pure functions of the plan, so every
   kernel instance of one codec shares them, across domains too.
   [pow_level]/[modulus] are the per-level view constants of
   Counter_view.make_params ~tau ~m ~level with the default base 2m (the
   flat kernel is never used for ablated variants, which fall back to the
   generic kernel).

   Division is the dominant cost of decoding (an idiv per mod/div, and
   [load_slot] runs on every announced slot), so everything with a small
   domain is tabulated: block/slot of a node id, and the (r, b) view of a
   block's counter value. The view tables are indexed by the raw inner
   output value in [0, inner_c), so the reduction mod [modulus.(blk)] is
   folded into them too: r = value mod tau at every level (tau divides
   every modulus), one shared row; b = value / (tau * pow_level.(l)) mod m,
   one row per level. Their total size (k + 1) * inner_c is tiny for
   every practical tower; they are left empty ([view_tabs] is false, the
   kernel falls back to the division chain) if a pathological
   parameterisation would make them large. Building them takes no
   division either: r_tab repeats with period tau, and b_tab is runs of
   tau * pow_level.(l) equal entries. *)
type tables = {
  pow_level : int array;
  modulus : int array;
  blk_of : int array;
  slot_of : int array;
  tab_base : int array;
  view_tabs : bool;
  r_tab : int array;
  b_tab : int array;
}

let build_tables p ~inner_c =
  let k = p.k and m = p.m and tau = p.tau in
  let pow_level = Array.init k (fun l -> Stdx.Imath.pow (2 * m) l) in
  let modulus = Array.init k (fun l -> tau * pow_level.(l) * 2 * m) in
  let blk_of = Array.init p.big_n (fun u -> u / p.n_inner) in
  let slot_of = Array.init p.big_n (fun u -> u mod p.n_inner) in
  let tab_base = Array.init k (fun l -> l * inner_c) in
  let view_tabs = inner_c <= (1 lsl 21) / (k + 1) in
  let r_tab = Array.make (if view_tabs then inner_c else 0) 0 in
  let b_tab = Array.make (if view_tabs then k * inner_c else 0) 0 in
  if view_tabs then begin
    for value = 0 to inner_c - 1 do
      r_tab.(value) <- (if value < tau then value else r_tab.(value - tau))
    done;
    for l = 0 to k - 1 do
      let run = tau * pow_level.(l) in
      let value = ref 0 and b = ref 0 in
      while !value < inner_c do
        Array.fill b_tab (tab_base.(l) + !value) (min run (inner_c - !value)) !b;
        value := !value + run;
        b := if !b + 1 = m then 0 else !b + 1
      done
    done
  end;
  { pow_level; modulus; blk_of; slot_of; tab_base; view_tabs; r_tab; b_tab }

(* Flat transition kernel: the exact computation of [transition] below, but
   over packed integer codes. The code layout is

     code = (inner_code * (C + 1) + a_code) * 2 + d_code

   with [a_code = 0] for the reset register (None) and [x + 1] for [Some x]
   — the same order as the polymorphic compare on [int option], so code
   order agrees with [compare_state] whenever the inner codec's does.

   Everything the phase-king step reads — views, nested majorities, the
   a-register histogram, the smallest F+1-supported value — depends only
   on the announced vector, not on [self], and consumes no rng. So the
   kernel keeps it decoded: [load] decodes every slot, [set] re-decodes
   one, and the aggregates over the decoded slots are brought up to date
   once per batch of announcements, on the next step. After a [load] that
   is the O(N) batch recompute. After [set]s alone it is per block: only
   the blocks a [set] touched are revoted, the leader and round counter
   are re-read only if those votes moved them, and the F+1-supported
   minimum follows the histogram bins that cross F. The engine announces
   the true states once per round and then only the faulty slots whose
   message differs per recipient, so benign rounds decode each slot once
   and hostile ones only the slots the adversary moves.

   [step_output] is the lookahead probe: the output of a boost state is
   its a-register alone, so it evaluates only the phase-king register —
   through the same [register] as [step] — and leaves the per-block
   inner kernels alone.

   One instance: the shared [tables] plus private mutable scratch, so an
   instance serves one run at a time. [load] is the reset that lets the
   engine hand it to the next run: it rewrites every slot ([hist] moves
   with [a_codes]), reloads every inner kernel and clears [stale], and
   [loaded] makes the next step recompute every aggregate and drop the
   previous vector's [marked]/[revote]/[min_stale]. *)
let kernel_instance (ic : _ Algo.Spec.codec) p ~big_c
    { pow_level; modulus; blk_of; slot_of; tab_base; view_tabs; r_tab; b_tab } =
  let num_a = big_c + 1 in
  let cap = big_c in
  let big_n = p.big_n
  and n_inner = p.n_inner
  and k = p.k
  and big_f = p.big_f
  and m = p.m
  and tau = p.tau in
  (* Scratch: the decoded (r, b) views, a-registers and inner codes of all
     N nodes, the per-block leader ballots, and the phase-king histogram
     of the a-registers. [hist] always counts [a_codes], which start as
     all-reset. *)
  let view_r = Array.make big_n 0 in
  let view_b = Array.make big_n 0 in
  let a_codes = Array.make big_n 0 in
  let inner_codes = Array.make big_n 0 in
  let block_votes = Array.make k 0 in
  let hist = Array.make (cap + 1) 0 in
  hist.(cap) <- big_n;
  (* Aggregate freshness. [loaded]: a [load] has replaced the vector
     since the aggregates below were last computed, so they are
     recomputed whole. Otherwise the first [nrevote] entries of [revote]
     are the blocks (flagged in [marked]) a [set] has touched since, and
     [min_stale] says the F+1-supported minimum has lost its support
     (only ever alongside a marked block). *)
  let loaded = ref true in
  let revote = Array.make k 0 in
  let nrevote = ref 0 in
  let marked = Array.make k false in
  let min_stale = ref false in
  let leader = ref 0 in
  let r_value = ref 0 in
  (* [r_value mod 3] and [r_value / 3], refreshed with [r_value]: the
     phase-king branch reads them on every step call. *)
  let r_instr = ref 0 in
  let r_ell = ref 0 in
  let min_sup = ref 0 in
  (* One inner kernel per block, each announced its own block's message
     array [blk_msgs.(i)]. [stale.(i)]: a [set] in block i has not yet
     been passed on. Passing it on is lazy — done by the next step of a
     block-i recipient — because eagerly forwarding every [set] pays for
     blocks whose recipients are served before the next change. *)
  let inner_kernels = Array.init k (fun _ -> ic.Algo.Spec.fresh_kernel ()) in
  let blk_msgs = Array.init k (fun _ -> Array.make n_inner 0) in
  let stale = Array.make k false in
  (* Boyer-Moore majority with verification over a.(lo .. lo+len-1),
     mirroring Algo.Vote.majority_int. *)
  let majority_slice (a : int array) ~lo ~len ~default =
    let candidate = ref 0 and score = ref 0 in
    for i = lo to lo + len - 1 do
      let x = a.(i) in
      if !score = 0 then begin
        candidate := x;
        score := 1
      end
      else if x = !candidate then incr score
      else decr score
    done;
    let cnt = ref 0 in
    for i = lo to lo + len - 1 do
      if a.(i) = !candidate then incr cnt
    done;
    if !cnt * 2 > len then !candidate else default
  in
  (* Register increment in code space: None stays None, Some x becomes
     Some ((x + 1) mod cap). Codes lie in [0, cap], so the reduction is a
     compare, not a division. *)
  let incr_code c = if c = 0 then 0 else if c = cap then 1 else c + 1 in
  let bin_of c = if c = 0 then cap else c - 1 in
  (* Decode slot [u]'s code into the view/register scratch, moving its
     histogram count from the old a-code to the new one. *)
  let load_slot u code =
    let rest = code lsr 1 in
    (* One division serves both quotient and remainder. *)
    let inner_code = rest / num_a in
    let c = rest - (inner_code * num_a) in
    hist.(bin_of a_codes.(u)) <- hist.(bin_of a_codes.(u)) - 1;
    hist.(bin_of c) <- hist.(bin_of c) + 1;
    a_codes.(u) <- c;
    inner_codes.(u) <- inner_code;
    let blk = blk_of.(u) in
    let value = ic.Algo.Spec.output_code ~self:slot_of.(u) inner_code in
    if view_tabs then begin
      view_r.(u) <- r_tab.(value);
      view_b.(u) <- b_tab.(tab_base.(blk) + value)
    end
    else begin
      let v' = value mod modulus.(blk) in
      view_r.(u) <- v' mod tau;
      view_b.(u) <- v' / tau / pow_level.(blk) mod m
    end
  in
  (* Nested majorities over the decoded slots: per-block leader pointers,
     leader block, the leader block's round counter, and the smallest
     value with more than F votes (I_{3l+1}); scanning the received values
     (any such value occurs at least once) instead of all of [0, cap)
     keeps the latter O(N). Pure compares, no divisions. After a [load]
     every block is voted; otherwise only the marked blocks are, and the
     leader and [R] are re-read only when a vote, or the leader block's
     own round counters, may have moved them. One function, not one
     closure per part: every closure is allocated by every kernel
     instance, and runs that exit early pay for that set-up. *)
  let refresh () =
    let reread_r =
      if !loaded then begin
        for i = 0 to k - 1 do
          block_votes.(i) <-
            majority_slice view_b ~lo:(i * n_inner) ~len:n_inner ~default:0
        done;
        leader := majority_slice block_votes ~lo:0 ~len:k ~default:0;
        true
      end
      else begin
        let moved = ref false and touched = ref false in
        for t = 0 to !nrevote - 1 do
          let i = revote.(t) in
          if i = !leader then touched := true;
          let b =
            majority_slice view_b ~lo:(i * n_inner) ~len:n_inner ~default:0
          in
          if b <> block_votes.(i) then begin
            block_votes.(i) <- b;
            moved := true
          end
        done;
        if !moved then begin
          let l = majority_slice block_votes ~lo:0 ~len:k ~default:0 in
          if l <> !leader then begin
            leader := l;
            touched := true
          end
        end;
        !touched
      end
    in
    if reread_r then begin
      r_value :=
        majority_slice view_r ~lo:(!leader * n_inner) ~len:n_inner ~default:0;
      r_ell := !r_value / 3;
      r_instr := !r_value - (!r_ell * 3)
    end;
    if !loaded || !min_stale then begin
      let best = ref cap in
      for u = 0 to big_n - 1 do
        let c = a_codes.(u) in
        if c <> 0 then begin
          let j = c - 1 in
          if j < !best && hist.(j) > big_f then best := j
        end
      done;
      min_sup := if !best = cap then 0 else !best + 1
    end;
    for t = 0 to !nrevote - 1 do
      marked.(revote.(t)) <- false
    done;
    nrevote := 0;
    min_stale := false;
    loaded := false
  in
  let load (received : int array) =
    for u = 0 to big_n - 1 do
      load_slot u received.(u)
    done;
    for i = 0 to k - 1 do
      (* A typed copy: [Array.blit] would [caml_modify] every code once
         the scratch lives in the major heap. *)
      let msgs = blk_msgs.(i) and base = i * n_inner in
      for j = 0 to n_inner - 1 do
        msgs.(j) <- inner_codes.(base + j)
      done;
      (inner_kernels.(i)).Algo.Spec.load msgs;
      stale.(i) <- false
    done;
    loaded := true
  in
  (* With the aggregates current, a [set] moves at most two histogram
     bins by one vote each: the minimum is rescanned only if its own bin
     falls to F votes, and a smaller bin reaching F + 1 becomes the
     minimum. *)
  let set u code =
    let blk = blk_of.(u) in
    if !loaded then load_slot u code
    else begin
      let old_a = a_codes.(u) in
      load_slot u code;
      let new_a = a_codes.(u) in
      if old_a <> new_a && not !min_stale then begin
        if old_a = !min_sup && old_a <> 0 && hist.(old_a - 1) = big_f then
          min_stale := true
        else if
          new_a <> 0
          && hist.(new_a - 1) = big_f + 1
          && (!min_sup = 0 || new_a < !min_sup)
        then min_sup := new_a
      end;
      if not marked.(blk) then begin
        marked.(blk) <- true;
        revote.(!nrevote) <- blk;
        incr nrevote
      end
    end;
    stale.(blk) <- true
  in
  (* Pass block [i]'s changed inner codes on to its inner kernel. *)
  let sync_block i =
    let msgs = blk_msgs.(i) and base = i * n_inner in
    for j = 0 to n_inner - 1 do
      let c = inner_codes.(base + j) in
      if msgs.(j) <> c then begin
        msgs.(j) <- c;
        (inner_kernels.(i)).Algo.Spec.set j c
      end
    done;
    stale.(i) <- false
  in
  (* Phase-king instruction I_{r_value} on [self]'s (a, d) registers, read
     from the current aggregates. Byzantine clamping is a no-op here:
     every a-code lies in [0, cap + 1) by construction of the encoding.
     The (a', d') pair is packed into one int [a' lsl 1 lor d'] — exactly
     the register half of the result code — so the match allocates
     nothing. Inlined into [step] and [step_output], the round loop's
     hot path. *)
  let[@inline] register ~self (received : int array) =
    let self_a = a_codes.(self) in
    let self_d = received.(self) land 1 in
    match !r_instr with
    | 0 ->
      let support = hist.(bin_of self_a) in
      let a = if support < big_n - big_f then 0 else self_a in
      (incr_code a lsl 1) lor self_d
    | 1 ->
      let d = if hist.(bin_of self_a) >= big_n - big_f then 1 else 0 in
      (incr_code !min_sup lsl 1) lor d
    | _ ->
      let a =
        if self_a = 0 || self_d = 0 then begin
          let imposed =
            let c = a_codes.(!r_ell) in
            if c = 0 then cap else c - 1
          in
          (* (imposed + 1) mod cap, with imposed <= cap: a compare. *)
          let x = imposed + 1 in
          (if x >= cap then x - cap else x) + 1
        end
        else incr_code self_a
      in
      (a lsl 1) lor 1
  in
  let step ~self ~rng (received : int array) =
    (* Announcements consume no rng, so syncing here cannot perturb the
       per-node stream. *)
    if !loaded || !nrevote > 0 then refresh ();
    let block = blk_of.(self) and slot = slot_of.(self) in
    if stale.(block) then sync_block block;
    (* Step 1: advance this block's copy of A on the block's messages. *)
    let inner' =
      (inner_kernels.(block)).Algo.Spec.step ~self:slot ~rng blk_msgs.(block)
    in
    (* Step 2: the phase-king registers. [+], not [lor]: the a-field is a
       mixed-radix digit, so the shifted inner part is not bit-aligned
       with the register half. *)
    ((inner' * num_a) lsl 1) + register ~self received
  in
  (* The codec's [output_code] of [step]'s result: the a-field alone. *)
  let step_output ~self ~rng:_ (received : int array) =
    if !loaded || !nrevote > 0 then refresh ();
    let a = register ~self received lsr 1 in
    if a = 0 then 0 else a - 1
  in
  { Algo.Spec.load; set; step; step_output }

(* The codec's [fresh_kernel]. The first call builds the [tables] (tower
   construction does not: every command pays for it in set-up, run or
   not) and every call shares them, allocating only its private scratch,
   so a short run pays for its buffers, not for re-tabulating the tower.
   The tables sit in an [Atomic.t], not a [Lazy.t]: kernels are created
   inside pool workers, and forcing one lazy value from two domains at
   once raises. Racing builders produce equal pure tables and
   [compare_and_set] keeps one of them. *)
let flat_kernel ic p ~big_c ~inner_c =
  let shared = Atomic.make None in
  fun () ->
    let t =
      match Atomic.get shared with
      | Some t -> t
      | None ->
        let t = build_tables p ~inner_c in
        if Atomic.compare_and_set shared None (Some t) then t
        else Option.get (Atomic.get shared)
    in
    kernel_instance ic p ~big_c t

let construct_gen ?ablation ~(inner : 's Algo.Spec.t) ~k ~big_f ~big_c () =
  let p =
    plan_exn ~k ~big_f ~big_c ~n_inner:inner.Algo.Spec.n
      ~f_inner:inner.Algo.Spec.f ~inner_c:inner.Algo.Spec.c
  in
  let p =
    match ablation with
    | Some (Short_window t') ->
      if t' < 3 || t' mod 3 <> 0 || t' >= p.tau then
        invalid_arg "Boost.construct_ablated: Short_window needs a multiple of 3 below tau";
      { p with tau = t' }
    | Some Pointer_base_m | Some Naive_phase_king | None -> p
  in
  let base = match ablation with Some Pointer_base_m -> Some p.m | _ -> None in
  let view_params =
    Array.init k (fun level ->
        Counter_view.make_params ?base ~tau:p.tau ~m:p.m ~level ())
  in
  let equal_state (s1 : 's state) (s2 : 's state) =
    inner.Algo.Spec.equal_state s1.inner s2.inner && s1.a = s2.a && s1.d = s2.d
  in
  let compare_state (s1 : 's state) (s2 : 's state) =
    let c = inner.Algo.Spec.compare_state s1.inner s2.inner in
    if c <> 0 then c
    else
      let c = compare s1.a s2.a in
      if c <> 0 then c else Bool.compare s1.d s2.d
  in
  let pp_state ppf (s : 's state) =
    let pp_a ppf = function
      | None -> Format.pp_print_string ppf "inf"
      | Some x -> Format.pp_print_int ppf x
    in
    Format.fprintf ppf "{inner=%a; a=%a; d=%d}" inner.Algo.Spec.pp_state
      s.inner pp_a s.a
      (if s.d then 1 else 0)
  in
  let random_state rng =
    let a =
      let raw = Stdx.Rng.int rng (big_c + 1) in
      if raw = big_c then None else Some raw
    in
    (* Draw order pinned by let-bindings: a-register, d-flag, inner
       state. This is the historical stream (record fields used to be
       evaluated right-to-left) and the codec's [random_code] mirrors it
       draw for draw — keep the two in sync. *)
    let d = Stdx.Rng.bool rng in
    let inner_state = inner.Algo.Spec.random_state rng in
    { inner = inner_state; a; d }
  in
  let transition ~self ~rng (received : 's state array) =
    let block, slot = block_of p self in
    (* Step 1: advance this block's copy of A on the block's messages. *)
    let block_messages =
      Array.init p.n_inner (fun j ->
          received.(node_of p ~block ~slot:j).inner)
    in
    let inner' = inner.Algo.Spec.transition ~self:slot ~rng block_messages in
    (* Step 2: leader election and round counter by nested majorities. *)
    let received_inner = Array.map (fun (s : _ state) -> s.inner) received in
    let _views, _votes, _leader, r_value =
      compute_vote inner view_params p received_inner
    in
    (* Step 3: phase-king instruction set I_R on the (a, d) registers. *)
    let a_values = Array.map (fun (s : _ state) -> s.a) received in
    let self_reg = { Phase_king.a = received.(self).a; d = received.(self).d } in
    let reg =
      match ablation with
      | Some Naive_phase_king ->
        naive_phase_king_step ~cap:big_c ~big_n:p.big_n ~index:r_value
          ~self:self_reg ~received:a_values
      | Some (Short_window _) | Some Pointer_base_m | None ->
        Phase_king.step ~cap:big_c ~big_n:p.big_n ~big_f ~index:r_value
          ~self:self_reg ~received:a_values
    in
    { inner = inner'; a = reg.Phase_king.a; d = reg.Phase_king.d }
  in
  let output ~self:_ s = match s.a with Some x -> x mod big_c | None -> 0 in
  let codec =
    match inner.Algo.Spec.codec with
    | None -> None
    | Some ic -> (
      let num_a = big_c + 1 in
      match
        Stdx.Imath.mul_checked
          (Stdx.Imath.mul_checked ic.Algo.Spec.num_states num_a)
          2
      with
      | exception Failure _ -> None (* state space exceeds 63-bit codes *)
      | num_states ->
        let encode_state (s : 's state) =
          let a_code = match s.a with None -> 0 | Some x -> x + 1 in
          (((ic.Algo.Spec.encode_state s.inner * num_a) + a_code) lsl 1)
          lor (if s.d then 1 else 0)
        in
        let decode_state code =
          let rest = code lsr 1 in
          let a_code = rest mod num_a in
          {
            inner = ic.Algo.Spec.decode_state (rest / num_a);
            a = (if a_code = 0 then None else Some (a_code - 1));
            d = code land 1 = 1;
          }
        in
        (* [a_code <= big_c], so [a_code - 1] needs no reduction. *)
        let output_code ~self:_ code =
          let a_code = code lsr 1 mod num_a in
          if a_code = 0 then 0 else a_code - 1
        in
        (* Same draw order as [random_state]: a-register, d-flag, inner
           state — composed through the inner codec's own random_code
           so towers stay in draw-level lockstep at every level. *)
        let draw_a = Stdx.Rng.int_sampler (big_c + 1) in
        let random_code rng =
          let raw = draw_a rng in
          let a_code = if raw = big_c then 0 else raw + 1 in
          let d = if Stdx.Rng.bool rng then 1 else 0 in
          let inner_code = ic.Algo.Spec.random_code rng in
          (((inner_code * num_a) + a_code) lsl 1) lor d
        in
        let fresh_kernel =
          match ablation with
          | None -> flat_kernel ic p ~big_c ~inner_c:inner.Algo.Spec.c
          | Some _ ->
            (* Ablated variants stay on the reference kernel so their
               deliberately broken semantics are preserved verbatim. *)
            Algo.Spec.generic_kernel ~n:p.big_n ~transition ~output
              ~encode_state ~decode_state
        in
        Some
          {
            Algo.Spec.num_states;
            encode_state;
            decode_state;
            output_code;
            random_code;
            fresh_kernel;
          })
  in
  let tag =
    match ablation with
    | None -> ""
    | Some (Short_window t') -> Printf.sprintf "!tau=%d" t'
    | Some Pointer_base_m -> "!base=m"
    | Some Naive_phase_king -> "!naive-king"
  in
  let spec =
    {
      Algo.Spec.name =
        Printf.sprintf "boost%s[k=%d,F=%d,C=%d](%s)" tag k big_f big_c
          inner.Algo.Spec.name;
      n = p.big_n;
      f = big_f;
      c = big_c;
      deterministic = inner.Algo.Spec.deterministic;
      state_bits =
        inner.Algo.Spec.state_bits + Stdx.Imath.bits_for (big_c + 1) + 1;
      equal_state;
      compare_state;
      pp_state;
      random_state;
      all_states = None;
      transition;
      output;
      codec;
    }
  in
  { spec; params = p; inner; view_params }

let construct ~inner ~k ~big_f ~big_c = construct_gen ~inner ~k ~big_f ~big_c ()

let construct_ablated ~ablation ~inner ~k ~big_f ~big_c =
  construct_gen ~ablation ~inner ~k ~big_f ~big_c ()

type probe = {
  views : Counter_view.t array;
  block_votes : int array;
  leader : int;
  r_value : int;
}

let probe_states t states =
  let received_inner = Array.map (fun (s : _ state) -> s.inner) states in
  let views, block_votes, leader, r_value =
    compute_vote t.inner t.view_params t.params received_inner
  in
  { views; block_votes; leader; r_value }
