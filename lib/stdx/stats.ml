type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
  p99 : float;
}

let check_nonempty name = function
  | [] -> invalid_arg (name ^ ": empty input")
  | _ -> ()

(* Polymorphic compare/min/max mis-sort and mis-aggregate in the presence
   of NaN; every aggregation below uses Float.compare/Float.min/Float.max
   and rejects NaN inputs outright. *)
let check_no_nan name xs =
  if List.exists Float.is_nan xs then invalid_arg (name ^ ": NaN input")

let checked name xs =
  check_nonempty name xs;
  check_no_nan name xs

let mean xs =
  checked "Stats.mean" xs;
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  checked "Stats.stddev" xs;
  match xs with
  | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (List.length xs - 1))

let percentile p xs =
  checked "Stats.percentile" xs;
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p outside [0,1]";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = p *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then a.(lo)
  else
    let w = rank -. float_of_int lo in
    ((1.0 -. w) *. a.(lo)) +. (w *. a.(hi))

let summarize xs =
  checked "Stats.summarize" xs;
  {
    count = List.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = List.fold_left Float.min infinity xs;
    max = List.fold_left Float.max neg_infinity xs;
    median = percentile 0.5 xs;
    p90 = percentile 0.9 xs;
    p99 = percentile 0.99 xs;
  }

let summarize_ints xs = summarize (List.map float_of_int xs)

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.2f sd=%.2f min=%.0f med=%.1f p90=%.1f p99=%.1f max=%.0f"
    s.count s.mean s.stddev s.min s.median s.p90 s.p99 s.max
