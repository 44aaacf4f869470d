type align = Left | Right

type row = Cells of string list | Rule

type t = {
  header : string list;
  aligns : align list;
  mutable rows : row list; (* reversed *)
}

let default_aligns n = List.init n (fun i -> if i = 0 then Left else Right)

let create ?aligns header =
  let n = List.length header in
  let aligns =
    match aligns with
    | None -> default_aligns n
    | Some a ->
      if List.length a <> n then invalid_arg "Table.create: aligns width mismatch";
      a
  in
  { header; aligns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.header then
    invalid_arg "Table.add_row: width mismatch";
  t.rows <- Cells cells :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

let utf8_length s = String.length s (* cells are ASCII in this repo *)

let widths t =
  let n = List.length t.header in
  let w = Array.make n 0 in
  let bump cells =
    List.iteri (fun i c -> w.(i) <- max w.(i) (utf8_length c)) cells
  in
  bump t.header;
  List.iter (function Cells c -> bump c | Rule -> ()) t.rows;
  w

let pad align width s =
  let fill = width - utf8_length s in
  if fill <= 0 then s
  else
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s

let pp ppf t =
  let w = widths t in
  let render_cells cells =
    let padded =
      List.mapi (fun i c -> pad (List.nth t.aligns i) w.(i) c) cells
    in
    String.concat "  " padded
  in
  let rule =
    String.concat "--"
      (Array.to_list (Array.map (fun width -> String.make width '-') w))
  in
  Format.fprintf ppf "%s@." (render_cells t.header);
  Format.fprintf ppf "%s@." rule;
  List.iter
    (function
      | Cells c -> Format.fprintf ppf "%s@." (render_cells c)
      | Rule -> Format.fprintf ppf "%s@." rule)
    (List.rev t.rows)

let to_string t = Format.asprintf "%a" pp t

let print t =
  print_string (to_string t);
  print_newline ()

let cell_int = string_of_int

let cell_float ?(digits = 2) x =
  if Float.is_integer x && Float.abs x < 1e15 && digits = 0 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.*f" digits x
