type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)
(* ------------------------------------------------------------------ *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escaped b s =
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    add_escaped b s;
    Buffer.contents b
  end

(* The decimal digits of [n >= 0] written into [d] so that they end at
   [stop], two per division; where they start. *)
let pairs =
  String.init 200 (fun i ->
      let v = i / 2 in
      Char.chr (48 + if i land 1 = 0 then v / 10 else v mod 10))

let rec fill_digits d stop n =
  if n < 10 then begin
    Bytes.unsafe_set d (stop - 1) (Char.unsafe_chr (48 + n));
    stop - 1
  end
  else begin
    let r = 2 * (n mod 100) in
    Bytes.unsafe_set d (stop - 2) (String.unsafe_get pairs r);
    Bytes.unsafe_set d (stop - 1) (String.unsafe_get pairs (r + 1));
    if n < 100 then stop - 2 else fill_digits d (stop - 2) (n / 100)
  end

let add_digits b n =
  let d = Bytes.create 19 in
  let start = fill_digits d 19 n in
  Buffer.add_subbytes b d start (19 - start)

let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

(* [%.17g] without the format interpreter. A positive finite [x] is
   m * 2^e with m < 2^53, and its 17 significant digits are
   q = round-half-even (x * 10^k) for k = 16 - floor (log10 x): exactly
   (m * 5^k) / 2^-(k + e), the product held in three 31-bit limbs. For
   1e-5 <= x < 1e15 the scale k stays in [1, 22] and the shift in
   [0, 62]; integral values below 1e17 print as integers, as [%.17g]
   prints them, and everything else goes through [Printf]. *)
let pow5 = Array.init 23 (fun k -> int_of_float (5.0 ** float_of_int k))
let mask31 = (1 lsl 31) - 1
let p16 = 10_000_000_000_000_000
let p17 = 100_000_000_000_000_000

(* round-half-even (m * 5^k / 2^s), or -1 outside the exact range. *)
let scaled m k s =
  if k < 0 || k > 22 || s < 0 || s > 62 then -1
  else begin
    let p = pow5.(k) in
    let m1 = m lsr 31 and m0 = m land mask31 in
    let p1 = p lsr 31 and p0 = p land mask31 in
    let t0 = m0 * p0 in
    let t1 = (m1 * p0) + (m0 * p1) + (t0 lsr 31) in
    let a0 = t0 land mask31 and a1 = t1 land mask31 in
    let a2 = (m1 * p1) + (t1 lsr 31) in
    (* m * 5^k = a2 * 2^62 + a1 * 2^31 + a0 *)
    if s = 0 then (a2 lsl 62) + (a1 lsl 31) + a0
    else begin
      let q, r =
        if s <= 31 then
          ( (a2 lsl (62 - s)) + (a1 lsl (31 - s)) + (a0 lsr s),
            a0 land ((1 lsl s) - 1) )
        else
          ( (a2 lsl (62 - s)) + (a1 lsr (s - 31)),
            ((a1 land ((1 lsl (s - 31)) - 1)) lsl 31) lor a0 )
      in
      let half = 1 lsl (s - 1) in
      if r > half || (r = half && q land 1 = 1) then q + 1 else q
    end
  end

(* The 17 digits of [x] (1e-5 <= x < 1e15) and their decimal exponent,
   or [None] when the exact range is left. [x] lies in [2^(ex-1), 2^ex),
   so floor (log10 x) is floor ((ex - 1) * log10 2) or one more: the
   first guess, corrected once when the digits come out one short. *)
let digits17 x =
  let fr, ex = Float.frexp x in
  let m = int_of_float (Float.ldexp fr 53) and e = ex - 53 in
  let rec go k tries =
    let q = scaled m k (-(k + e)) in
    if q < 0 || tries = 0 then None
    else if q >= p17 then go (k - 1) (tries - 1)
    else if q < p16 then go (k + 1) (tries - 1)
    else Some (q, 16 - k)
  in
  let log10_2 = 0.30102999566398120 in
  go (16 - int_of_float (Float.floor (float_of_int (ex - 1) *. log10_2))) 2

let add_zeros b k =
  for _ = 1 to k do
    Buffer.add_char b '0'
  done

(* [%g]'s layout of 17 digits [q] with decimal exponent [x10]: trailing
   zeros dropped, fixed notation for -4 <= x10 < 17, else d.ddde+XX. *)
let add_g17 b q x10 =
  let d = Bytes.create 17 in
  ignore (fill_digits d 17 q);
  let len = ref 17 in
  while !len > 1 && Bytes.get d (!len - 1) = '0' do
    decr len
  done;
  let len = !len in
  if x10 < -4 || x10 >= 17 then begin
    Buffer.add_char b (Bytes.get d 0);
    if len > 1 then begin
      Buffer.add_char b '.';
      Buffer.add_subbytes b d 1 (len - 1)
    end;
    Buffer.add_string b (if x10 < 0 then "e-" else "e+");
    if abs x10 < 10 then Buffer.add_char b '0';
    add_digits b (abs x10)
  end
  else if x10 >= 0 then
    if len <= x10 + 1 then begin
      Buffer.add_subbytes b d 0 len;
      add_zeros b (x10 + 1 - len)
    end
    else begin
      Buffer.add_subbytes b d 0 (x10 + 1);
      Buffer.add_char b '.';
      Buffer.add_subbytes b d (x10 + 1) (len - x10 - 1)
    end
  else begin
    Buffer.add_string b "0.";
    add_zeros b (-x10 - 1);
    Buffer.add_subbytes b d 0 len
  end

let add_float b x =
  let ax = Float.abs x in
  if Float.is_integer x && ax < 1e17 then begin
    if Float.sign_bit x then Buffer.add_char b '-';
    add_digits b (int_of_float ax)
  end
  else
    match if ax >= 1e-5 && ax < 1e15 then digits17 ax else None with
    | Some (q, x10) ->
      if x < 0.0 then Buffer.add_char b '-';
      add_g17 b q x10
    | None -> Buffer.add_string b (Printf.sprintf "%.17g" x)

let float_to_string x =
  let b = Buffer.create 24 in
  add_float b x;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

(* The scanner reads bytes in place: [at c] and [cur ()] test and
   fetch the byte at [pos], and every branch that must tell the end of
   input from a byte asks [eof ()] first, so no byte is ever boxed. *)
let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail_at at msg =
    raise (Parse_error (Printf.sprintf "byte %d: %s" at msg))
  in
  let fail msg = fail_at !pos msg in
  let eof () = !pos >= n in
  let cur () = String.unsafe_get s !pos in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      &&
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' -> true
      | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if eof () then fail (Printf.sprintf "expected %c, found end of input" c)
    else if cur () = c then advance ()
    else fail (Printf.sprintf "expected %c, found %c" c (cur ()))
  in
  let literal word v =
    let l = String.length word in
    let rec same i =
      i = l || (String.unsafe_get s (!pos + i) = word.[i] && same (i + 1))
    in
    if !pos + l <= n && same 0 then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    let code = ref 0 in
    for _ = 1 to 4 do
      let d =
        if eof () then fail "bad \\u escape"
        else
          match cur () with
          | '0' .. '9' as c -> Char.code c - 48
          | 'a' .. 'f' as c -> Char.code c - 87
          | 'A' .. 'F' as c -> Char.code c - 55
          | _ -> fail "bad \\u escape"
      in
      advance ();
      code := (16 * !code) + d
    done;
    !code
  in
  (* The scalar value of the \u escape whose backslash is at [at], with
     [pos] past its 'u': a UTF-16 surrogate pair is one escape, and a
     surrogate outside a high-then-low pair is an error at [at]. *)
  let unicode_escape at =
    let hi = hex4 () in
    if hi land 0xF800 <> 0xD800 then hi
    else begin
      if hi >= 0xDC00 || !pos + 1 >= n || s.[!pos] <> '\\'
         || s.[!pos + 1] <> 'u'
      then fail_at at "lone surrogate";
      pos := !pos + 2;
      let lo = hex4 () in
      if lo land 0xFC00 <> 0xDC00 then fail_at at "lone surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
  in
  (* A run of plain bytes up to the next quote, backslash, control byte
     or the end of input: where it stops is [pos]. *)
  let plain_run () =
    while
      !pos < n
      &&
      let c = String.unsafe_get s !pos in
      c <> '"' && c <> '\\' && Char.code c >= 0x20
    do
      advance ()
    done
  in
  let string_ () =
    expect '"';
    let start = !pos in
    plain_run ();
    if at '"' then begin
      advance ();
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let b = Buffer.create (max 16 (2 * (!pos - start))) in
      Buffer.add_substring b s start (!pos - start);
      let rec go () =
        if eof () then fail "unterminated string"
        else
          match cur () with
          | '"' -> advance ()
          | '\\' ->
            advance ();
            let esc c =
              advance ();
              Buffer.add_char b c
            in
            (if eof () then fail "bad escape"
             else
               match cur () with
               | '"' -> esc '"'
               | '\\' -> esc '\\'
               | '/' -> esc '/'
               | 'n' -> esc '\n'
               | 't' -> esc '\t'
               | 'r' -> esc '\r'
               | 'b' -> esc '\b'
               | 'f' -> esc '\012'
               | 'u' ->
                 advance ();
                 Buffer.add_utf_8_uchar b
                   (Uchar.of_int (unicode_escape (!pos - 2)))
               | _ -> fail "bad escape");
            go ()
          | c when Char.code c < 0x20 -> fail "control character in string"
          | _ ->
            let from = !pos in
            plain_run ();
            Buffer.add_substring b s from (!pos - from);
            go ()
      in
      go ();
      Buffer.contents b
    end
  in
  let digits () =
    let d0 = !pos in
    while !pos < n && match cur () with '0' .. '9' -> true | _ -> false do
      advance ()
    done;
    if !pos = d0 then fail "expected digit"
  in
  let number () =
    let start = !pos in
    let is_float = ref false in
    if at '-' then advance ();
    (* No leading zeros: "0" stands alone before '.', 'e' or the end. *)
    if at '0' then advance () else digits ();
    if at '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    if at 'e' || at 'E' then begin
      is_float := true;
      advance ();
      if at '+' || at '-' then advance ();
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string lit)
    else
      match int_of_string_opt lit with
      | Some v -> Int v
      | None -> Float (float_of_string lit)
  in
  let rec value () =
    skip_ws ();
    if eof () then fail "unexpected end of input"
    else
      match cur () with
      | '"' -> String (string_ ())
      | '{' ->
        advance ();
        skip_ws ();
        if at '}' then begin
          advance ();
          Object []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_ () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            if at ',' then begin
              advance ();
              members ((k, v) :: acc)
            end
            else begin
              expect '}';
              List.rev ((k, v) :: acc)
            end
          in
          Object (members [])
        end
      | '[' ->
        advance ();
        skip_ws ();
        if at ']' then begin
          advance ();
          Array []
        end
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            if at ',' then begin
              advance ();
              elements (v :: acc)
            end
            else begin
              expect ']';
              List.rev (v :: acc)
            end
          in
          Array (elements [])
        end
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '-' | '0' .. '9' -> number ()
      | c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing content after the JSON value";
  v

let parse_result s =
  match parse s with v -> Ok v | exception Parse_error msg -> Error msg

let lines s =
  let len = String.length s in
  let rec from lineno pos () =
    if pos > len then Seq.Nil
    else
      let stop =
        Option.value (String.index_from_opt s pos '\n') ~default:len
      in
      let line = String.sub s pos (stop - pos) in
      if String.trim line = "" then from (lineno + 1) (stop + 1) ()
      else Seq.Cons ((lineno, line), from (lineno + 1) (stop + 1))
  in
  from 1 0

let field obj name =
  match obj with
  | Object kvs -> (
    match List.assoc_opt name kvs with
    | Some v -> v
    | None -> raise (Parse_error (Printf.sprintf "missing field %S" name)))
  | _ -> raise (Parse_error "expected an object")

let field_opt obj name =
  match obj with
  | Object kvs -> List.assoc_opt name kvs
  | _ -> raise (Parse_error "expected an object")

let to_int name = function
  | Int v -> v
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected int" name))

let to_string name = function
  | String v -> v
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected string" name))

let to_float name = function
  | Float v -> v
  | Int v -> float_of_int v
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected number" name))

let to_bool name = function
  | Bool v -> v
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected bool" name))

let to_opt_int name = function
  | Null -> None
  | Int v -> Some v
  | _ ->
    raise (Parse_error (Printf.sprintf "field %S: expected int or null" name))

let to_ints name = function
  | Array vs -> List.map (to_int name) vs
  | _ ->
    raise (Parse_error (Printf.sprintf "field %S: expected int array" name))

let to_list name = function
  | Array vs -> vs
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected array" name))
