type reg = { a : int option; d : bool }

let tau ~big_f = 3 * (big_f + 2)

let king_of_index r = r / 3

let increment ~cap = function
  | None -> None
  | Some x -> Some ((x + 1) mod cap)

(* Out-of-range register claims from Byzantine senders collapse to the
   reset state: an honest node can never be tricked into counting a value
   that no honest register could hold. *)
let clamp cap = function
  | Some x when x >= 0 && x < cap -> Some x
  | Some _ | None -> None

let count_value received v =
  Array.fold_left (fun acc x -> if x = v then acc + 1 else acc) 0 received

(* z_j for j in [0, cap); index [cap] holds the count of the reset state. *)
let histogram ~cap received =
  let z = Array.make (cap + 1) 0 in
  Array.iter
    (fun x ->
      match x with
      | Some v -> z.(v) <- z.(v) + 1
      | None -> z.(cap) <- z.(cap) + 1)
    received;
  z

let min_supported ~cap ~big_f z =
  let rec go j =
    if j >= cap then None else if z.(j) > big_f then Some j else go (j + 1)
  in
  go 0

let step_gen ~increment:do_increment ~cap ~big_n ~big_f ~index ~self ~received =
  let t = tau ~big_f in
  if index < 0 || index >= t then
    invalid_arg (Printf.sprintf "Phase_king.step: index %d outside [0,%d)" index t);
  if Array.length received <> big_n then
    invalid_arg "Phase_king.step: received vector has wrong length";
  if big_n < big_f + 2 then
    invalid_arg "Phase_king.step: need big_n >= F + 2 so every king exists";
  let received = Array.map (clamp cap) received in
  let ell = king_of_index index in
  let bump a = if do_increment then increment ~cap a else a in
  match index mod 3 with
  | 0 ->
    (* I_{3l}: reset unless at least N - F nodes sent our own value. *)
    let support = count_value received self.a in
    let a = if support < big_n - big_f then None else self.a in
    { a = bump a; d = self.d }
  | 1 ->
    (* I_{3l+1}: support bit from an N - F quorum on our own value; adopt
       the smallest value with more than F votes (only a value some honest
       node actually sent can clear that bar). *)
    let z = histogram ~cap received in
    let own_support =
      match self.a with Some v -> z.(v) | None -> z.(cap)
    in
    let d = own_support >= big_n - big_f in
    let a = min_supported ~cap ~big_f z in
    { a = bump a; d }
  | _ ->
    (* I_{3l+2}: nodes without a quorum-backed value adopt the king's. *)
    let a =
      if self.a = None || not self.d then
        (* min{C, a[l]}: the reset state is treated as the ceiling C. The
           transient value C leaves [0, C) but the increment immediately
           re-enters it; without the increment (one-shot mode) we fold C
           to C - 1 to stay in range. *)
        let imposed =
          match received.(ell) with None -> cap | Some x -> min cap x
        in
        if do_increment then Some ((imposed + 1) mod cap)
        else Some (min imposed (cap - 1))
      else bump self.a
    in
    { a; d = true }

let step = step_gen ~increment:true

let is_faulty faulty v = List.mem v faulty

type fabricator = round:int -> recipient:int -> faulty:int -> int option

let broadcast_view ~regs ~faulty ~fabricator ~round ~recipient =
  Array.init (Array.length regs) (fun u ->
      if is_faulty faulty u then fabricator ~round ~recipient ~faulty:u
      else regs.(u).a)

let run_registers ~cap ~big_f ~faulty ~fabricator ~init ~start_index ~rounds =
  let big_n = Array.length init in
  let t = tau ~big_f in
  let trace = Array.make (rounds + 1) [||] in
  trace.(0) <- Array.copy init;
  for round = 0 to rounds - 1 do
    let regs = trace.(round) in
    let index = (start_index + round) mod t in
    let next =
      Array.mapi
        (fun v reg ->
          if is_faulty faulty v then reg
          else
            let received =
              broadcast_view ~regs ~faulty ~fabricator ~round ~recipient:v
            in
            step ~cap ~big_n ~big_f ~index ~self:reg ~received)
        regs
    in
    trace.(round + 1) <- next
  done;
  trace

let agreement ~cap:_ ~faulty regs =
  let correct =
    List.filter
      (fun v -> not (is_faulty faulty v))
      (List.init (Array.length regs) (fun i -> i))
  in
  match correct with
  | [] -> None
  | v0 :: rest -> (
    match regs.(v0).a with
    | None -> None
    | Some x ->
      if
        regs.(v0).d
        && List.for_all
             (fun v -> regs.(v).d && regs.(v).a = Some x)
             rest
      then Some x
      else None)

let one_shot ~cap ~big_f ~faulty ~fabricator ~inputs =
  let big_n = Array.length inputs in
  let regs =
    ref (Array.map (fun x -> { a = Some (min (max x 0) (cap - 1)); d = false }) inputs)
  in
  let round = ref 0 in
  (* F + 1 phases with kings 0..F: at least one king is non-faulty. *)
  for ell = 0 to big_f do
    List.iter
      (fun phase_step ->
        let current = !regs in
        let index = (3 * ell) + phase_step in
        let next =
          Array.mapi
            (fun v reg ->
              if is_faulty faulty v then reg
              else
                let received =
                  broadcast_view ~regs:current ~faulty ~fabricator
                    ~round:!round ~recipient:v
                in
                step_gen ~increment:false ~cap ~big_n ~big_f ~index ~self:reg
                  ~received)
            current
        in
        regs := next;
        incr round)
      [ 1; 2 ]
  done;
  Array.mapi
    (fun v reg ->
      if is_faulty faulty v then inputs.(v)
      else match reg.a with Some x -> x | None -> 0)
    !regs
