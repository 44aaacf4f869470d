type reg = { a : int option; d : bool }

let tau ~big_f = 3 * (big_f + 2)

let king_of_index r = r / 3

let increment ~cap = function
  | None -> None
  | Some x -> Some ((x + 1) mod cap)

type thresholds =
  | Table2 of { big_n : int; big_f : int }
  | Majority of { big_n : int }
  | Lemma8 of { samples : int }

(* The quorum test on the vote count [z] of our own value: keep the
   register (I_{3l}), raise d (I_{3l+1}). *)
let quorum th z =
  match th with
  | Table2 { big_n; big_f } -> z >= big_n - big_f
  | Majority { big_n } -> 2 * z > big_n
  | Lemma8 { samples } -> 3 * z >= 2 * samples

(* The support test: I_{3l+1} adopts the smallest value passing it. *)
let support th z =
  match th with
  | Table2 { big_f; _ } -> z > big_f
  | Majority _ -> z >= 1
  | Lemma8 { samples } -> 3 * z > samples

(* The histogram bin of a register value: [0, cap) for itself, [cap] for
   the reset state. Out-of-range claims from Byzantine senders fall into
   the reset bin: an honest node can never be tricked into counting a
   value that no honest register could hold. *)
let bin ~cap = function
  | Some x when x >= 0 && x < cap -> x
  | Some _ | None -> cap

let instruction ~cap th ~index ~self ~votes ~king =
  let own =
    match self.a with
    | Some x when x < 0 || x >= cap ->
      invalid_arg
        (Printf.sprintf
           "Phase_king.instruction: own register %d outside [0,%d)" x cap)
    | a -> bin ~cap a
  in
  match index mod 3 with
  | 0 ->
    (* I_{3l}: reset unless a quorum of votes is for our own value. *)
    let z =
      Array.fold_left (fun z x -> if bin ~cap x = own then z + 1 else z) 0 votes
    in
    { a = increment ~cap (if quorum th z then self.a else None); d = self.d }
  | 1 ->
    (* I_{3l+1}: support bit from a quorum on our own value; adopt the
       smallest value with support (under Table 2's F+1, only a value
       some honest node actually sent can clear that bar). *)
    let z = Array.make (cap + 1) 0 in
    Array.iter
      (fun x ->
        let j = bin ~cap x in
        z.(j) <- z.(j) + 1)
      votes;
    let rec min_supported j =
      if j >= cap then None
      else if support th z.(j) then Some j
      else min_supported (j + 1)
    in
    { a = increment ~cap (min_supported 0); d = quorum th z.(own) }
  | _ ->
    (* I_{3l+2}: nodes without a quorum-backed value adopt the king's,
       min{C, a[l]}: the reset state is treated as the ceiling C. The
       transient value C leaves [0, C) but the increment immediately
       re-enters it. *)
    let a =
      if self.a = None || not self.d then Some ((bin ~cap king + 1) mod cap)
      else increment ~cap self.a
    in
    { a; d = true }

let step ~cap ~big_n ~big_f ~index ~self ~received =
  let t = tau ~big_f in
  if index < 0 || index >= t then
    invalid_arg (Printf.sprintf "Phase_king.step: index %d outside [0,%d)" index t);
  if Array.length received <> big_n then
    invalid_arg "Phase_king.step: received vector has wrong length";
  if big_n < big_f + 2 then
    invalid_arg "Phase_king.step: need big_n >= F + 2 so every king exists";
  instruction ~cap (Table2 { big_n; big_f }) ~index ~self ~votes:received
    ~king:received.(king_of_index index)

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
