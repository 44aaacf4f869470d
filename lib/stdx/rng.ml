(* The 64-bit SplitMix state lives unboxed in an 8-byte buffer, read and
   written through the unboxed-int64 primitives. With the state in a
   [mutable int64] field every draw would allocate a boxed Int64; here,
   as long as [next] is inlined into its caller, the whole
   add-mix-truncate chain stays in registers and a draw allocates
   nothing. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let next_int64 t = next t

let split t = of_state (next t)

let split_into t child = set64 child 0 (next t)

(* After [k] draws the state has moved by exactly [k] gammas. *)
let[@inline] gammas k = Int64.mul (Int64.of_int k) golden_gamma

let split_nth t k child =
  set64 child 0 (mix (Int64.add (get64 t 0) (gammas (k + 1))))

let advance t k = set64 t 0 (Int64.add (get64 t 0) (gammas k))

let bits t = Int64.to_int (Int64.shift_right_logical (next t) 34)

(* Rejection sampling over 61 bits (OCaml native ints are 63-bit, so
   1 lsl 61 is still a positive int) to avoid modulo bias: a draw at or
   above [threshold bound], the largest multiple of [bound] up to 2^61,
   is redrawn. A while loop, not a local recursive function: the
   closure would allocate on every call. *)
let threshold bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound > 1 lsl 61 then invalid_arg "Rng.int: bound too large";
  (1 lsl 61) - ((1 lsl 61) mod bound)

let[@inline] draw t bound threshold =
  let r = ref (Int64.to_int (Int64.shift_right_logical (next t) 3)) in
  while !r >= threshold do
    r := Int64.to_int (Int64.shift_right_logical (next t) 3)
  done;
  !r mod bound

let int t bound = if bound = 1 then 0 else draw t bound (threshold bound)

let int_sampler bound =
  let threshold = threshold bound in
  if bound = 1 then fun _ -> 0 else fun t -> draw t bound threshold

let bool t = Int64.logand (next t) 1L = 1L

let float t =
  let x = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x /. 9007199254740992.0 (* 2^53 *)

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Floyd's algorithm: O(k) expected time, no O(n) allocation. *)
  let seen = Hashtbl.create (2 * k) in
  let acc = ref [] in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    let v = if Hashtbl.mem seen r then j else r in
    Hashtbl.replace seen v ();
    acc := v :: !acc
  done;
  !acc

let sample_with_replacement t k n =
  if k < 0 then invalid_arg "Rng.sample_with_replacement";
  List.init k (fun _ -> int t n)
