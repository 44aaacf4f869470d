(* Packed state vector of the simulation engine: one slot per node
   holding the spec's integer state code. Codes below 256 pack into a
   byte string; larger state spaces use an unboxed int bigarray (up to
   2^62 codes). Lives in its own module (rather than inside [Engine])
   so flat adversary kernels can read packed codes without decoding. *)

type t =
  | Small of Bytes.t
  | Wide of (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let create ~num_states n =
  if num_states <= 256 then Small (Bytes.make n '\000')
  else begin
    let a = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout n in
    Bigarray.Array1.fill a 0;
    Wide a
  end

let length = function
  | Small b -> Bytes.length b
  | Wide a -> Bigarray.Array1.dim a

let get t i =
  match t with
  | Small b -> Char.code (Bytes.get b i)
  | Wide a -> Bigarray.Array1.get a i

let set t i v =
  match t with
  | Small b -> Bytes.set b i (Char.chr v)
  | Wide a -> Bigarray.Array1.set a i v

let blit_to t (dst : int array) n =
  match t with
  | Small b ->
    for i = 0 to n - 1 do
      dst.(i) <- Char.code (Bytes.get b i)
    done
  | Wide a ->
    for i = 0 to n - 1 do
      dst.(i) <- Bigarray.Array1.get a i
    done
