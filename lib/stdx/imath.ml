let mul_checked a b =
  if a = 0 || b = 0 then 0
  else
    let r = a * b in
    (* [min_int / -1] wraps to [min_int], so the division check alone
       passes [-1 * min_int]. *)
    if (a = -1 && b = min_int) || r / a <> b then
      failwith "Imath: integer overflow"
    else r

let pow b e =
  if e < 0 then invalid_arg "Imath.pow: negative exponent";
  let rec go acc i = if i = e then acc else go (mul_checked acc b) (i + 1) in
  go 1 0

let bits_for n =
  if n <= 0 then invalid_arg "Imath.bits_for";
  let rec floor_log2 acc n =
    if n = 1 then acc else floor_log2 (acc + 1) (n lsr 1)
  in
  let f = floor_log2 0 n in
  max 1 (if 1 lsl f = n then f else f + 1)

let imod a m =
  if m <= 0 then invalid_arg "Imath.imod";
  let r = a mod m in
  if r < 0 then r + m else r
