type t = { r : int; y : int; b : int }

type params = { tau : int; two_m : int; m : int; level : int }

let make_params ?base ~tau ~m ~level () =
  if tau < 1 then invalid_arg "Counter_view: tau < 1";
  if m < 1 then invalid_arg "Counter_view: m < 1";
  if level < 0 then invalid_arg "Counter_view: negative level";
  let two_m = match base with None -> 2 * m | Some b -> b in
  if two_m < 1 then invalid_arg "Counter_view: base < 1";
  { tau; two_m; m; level }

let modulus p = p.tau * Stdx.Imath.pow p.two_m (p.level + 1)

let of_value p v =
  let v = Stdx.Imath.imod v (modulus p) in
  let r = v mod p.tau in
  let y = v / p.tau in
  let b = y / Stdx.Imath.pow p.two_m p.level mod p.m in
  { r; y; b }

let dwell_length p = p.tau * Stdx.Imath.pow p.two_m p.level

let pointer_at p ~start_value ~round =
  (of_value p (start_value + round)).b
