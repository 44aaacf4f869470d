let count v a =
  Array.fold_left (fun acc x -> if Int.equal x v then acc + 1 else acc) 0 a

let majority_int ~default a =
  let n = Array.length a in
  if n = 0 then default
  else begin
    (* Boyer-Moore majority vote: candidate survives pairwise cancellation,
       then a verification pass confirms a strict majority. *)
    let candidate = ref a.(0) and score = ref 0 in
    Array.iter
      (fun x ->
        if !score = 0 then begin
          candidate := x;
          score := 1
        end
        else if Int.equal x !candidate then incr score
        else decr score)
      a;
    if count !candidate a * 2 > n then !candidate else default
  end

let counts_int ~max a =
  let z = Array.make max 0 in
  Array.iter (fun v -> if v >= 0 && v < max then z.(v) <- z.(v) + 1) a;
  z
