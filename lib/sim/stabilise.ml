type verdict = Online.verdict = Stabilized of int | Not_stabilized

let agreement_at ~correct outputs ~round =
  match correct with
  | [] -> true
  | v0 :: rest ->
    let x = outputs.(round).(v0) in
    List.for_all (fun v -> outputs.(round).(v) = x) rest

let count_ok_step ~c ~correct outputs ~round =
  agreement_at ~correct outputs ~round
  && agreement_at ~correct outputs ~round:(round + 1)
  &&
  match correct with
  | [] -> true
  | v0 :: _ -> outputs.(round + 1).(v0) = (outputs.(round).(v0) + 1) mod c

let of_outputs ~c ~correct ~min_suffix outputs =
  let last = Array.length outputs - 1 in
  if last < 0 then Not_stabilized
  else if not (agreement_at ~correct outputs ~round:last) then Not_stabilized
  else begin
    (* Walk backwards over counting steps while they are clean. *)
    let rec back t =
      if t = 0 then 0
      else if count_ok_step ~c ~correct outputs ~round:(t - 1) then back (t - 1)
      else t
    in
    let t = back last in
    if last - t >= min_suffix then Stabilized t else Not_stabilized
  end

let of_run ~min_suffix (run : 's Network.run) =
  of_outputs ~c:run.Network.spec.Algo.Spec.c
    ~correct:(Network.correct_ids run)
    ~min_suffix run.Network.outputs
