type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of string

let escape s =
  let b = Buffer.create (String.length s) in
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
    s;
  Buffer.contents b

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail_at at msg =
    raise (Parse_error (Printf.sprintf "byte %d: %s" at msg))
  in
  let fail msg = fail_at !pos msg in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, found %c" c c')
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    let code = ref 0 in
    for _ = 1 to 4 do
      let d =
        match peek () with
        | Some ('0' .. '9' as c) -> Char.code c - 48
        | Some ('a' .. 'f' as c) -> Char.code c - 87
        | Some ('A' .. 'F' as c) -> Char.code c - 55
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
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> advance (); Buffer.add_char b '"'; go ()
        | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
        | Some '/' -> advance (); Buffer.add_char b '/'; go ()
        | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
        | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
        | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
        | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
        | Some 'u' ->
          advance ();
          Buffer.add_utf_8_uchar b (Uchar.of_int (unicode_escape (!pos - 2)));
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if !pos = d0 then fail "expected digit"
    in
    (* No leading zeros: "0" stands alone before '.', 'e' or the end. *)
    if peek () = Some '0' then advance () else digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let lit = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string lit)
    else
      match int_of_string_opt lit with
      | Some v -> Int v
      | None -> Float (float_of_string lit)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '"' -> String (string_ ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
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
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | _ ->
            expect '}';
            List.rev ((k, v) :: acc)
        in
        Object (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Array []
      end
      else begin
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | _ ->
            expect ']';
            List.rev (v :: acc)
        in
        Array (elements [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing content after the JSON value";
  v

let parse_result s =
  match parse s with v -> Ok v | exception Parse_error msg -> Error msg

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
