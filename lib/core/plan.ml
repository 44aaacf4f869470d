type level = { k : int; big_f : int }

type level_report = {
  index : int;
  k : int;
  big_f : int;
  n : int;
  c : int;
  overhead : int;
  time_bound : int;
  state_bits : int;
}

type tower = {
  base_n : int;
  base_c : int;
  base_time : int;
  target_c : int;
  levels : level_report list;
}

let top tower =
  match List.rev tower.levels with
  | [] -> invalid_arg "Plan.top: empty tower"
  | t :: _ -> t

(* 3(F+2)(2m)^k of a single level; Error on 63-bit overflow. *)
let level_requirement (l : level) =
  if l.k < 3 then Error (Printf.sprintf "k = %d < 3" l.k)
  else if l.big_f < 0 then Error (Printf.sprintf "F = %d < 0" l.big_f)
  else
    let m = (l.k + 1) / 2 in
    match Stdx.Imath.pow (2 * m) l.k with
    | exception Failure _ ->
      Error (Printf.sprintf "(2m)^k overflows (k = %d)" l.k)
    | window -> (
      match Stdx.Imath.mul_checked (3 * (l.big_f + 2)) window with
      | exception Failure _ ->
        Error
          (Printf.sprintf "3(F+2)(2m)^k overflows (k = %d, F = %d)" l.k
             l.big_f)
      | req -> Ok req)

let plan_tower ?(base_n = 1) ~target_c levels =
  let ( let* ) = Result.bind in
  if levels = [] then Error "empty level schedule"
  else if target_c < 2 then
    Error (Printf.sprintf "target c = %d; counters need c > 1" target_c)
  else begin
    (* Thread counter-modulus requirements top-down: each level's output
       modulus is exactly what the level above needs (alpha = 1), except
       the top level which outputs the user's target. *)
    let* reqs =
      List.fold_right
        (fun level acc ->
          let* acc = acc in
          let* req = level_requirement level in
          Ok (req :: acc))
        levels (Ok [])
    in
    let moduli =
      match reqs with
      | [] -> assert false
      | _ :: above -> above @ [ target_c ]
    in
    let base_c = List.hd reqs in
    let base_time = Trivial.exact_stabilisation_time ~n:base_n in
    let* reports =
      let rec go idx n_below f_below c_below t_below s_below schedule acc =
        match schedule with
        | [] -> Ok (List.rev acc)
        | ((level : level), c_out) :: rest ->
          let* params =
            Result.map_error
              (fun msg -> Printf.sprintf "level %d: %s" idx msg)
              (Boost.plan ~k:level.k ~big_f:level.big_f ~big_c:c_out
                 ~n_inner:n_below ~f_inner:f_below ~inner_c:c_below)
          in
          let report =
            {
              index = idx;
              k = level.k;
              big_f = level.big_f;
              n = params.Boost.big_n;
              c = c_out;
              overhead = params.Boost.time_overhead;
              time_bound = t_below + params.Boost.time_overhead;
              state_bits = s_below + Stdx.Imath.bits_for (c_out + 1) + 1;
            }
          in
          go (idx + 1) params.Boost.big_n level.big_f c_out report.time_bound
            report.state_bits rest (report :: acc)
      in
      go 1 base_n 0 base_c base_time
        (Stdx.Imath.bits_for base_c)
        (List.combine levels moduli)
        []
    in
    Ok { base_n; base_c; base_time; target_c; levels = reports }
  end

let plan_tower_exn ?base_n ~target_c levels =
  match plan_tower ?base_n ~target_c levels with
  | Ok t -> t
  | Error msg -> invalid_arg ("Plan.plan_tower: " ^ msg)

let corollary1_levels ~f =
  if f < 1 then invalid_arg "Plan.corollary1_levels: f < 1";
  [ { k = (3 * f) + 1; big_f = f } ]

let figure2_levels =
  [ { k = 4; big_f = 1 }; { k = 3; big_f = 3 }; { k = 3; big_f = 7 } ]

let h_of_epsilon epsilon =
  if epsilon <= 0.0 || epsilon > 1.0 then
    invalid_arg "Plan: epsilon must lie in (0, 1]";
  (* minimal h with epsilon >= 1 / log2 h, i.e. h = 2^ceil(1/epsilon) *)
  let inv = int_of_float (Float.ceil (1.0 /. epsilon)) in
  Stdx.Imath.pow 2 (max 1 inv)

let theorem2_levels ~epsilon ~iterations =
  if iterations < 0 then invalid_arg "Plan.theorem2_levels: iterations < 0";
  let h = h_of_epsilon epsilon in
  let k = 2 * h in
  let base = { k = 4; big_f = 1 } in
  let rec go i f acc =
    if i > iterations then List.rev acc
    else
      let f' = f * h in
      go (i + 1) f' ({ k; big_f = f' } :: acc)
  in
  base :: go 1 1 []


(* ------------------------------------------------------------------ *)
(* Log-domain analytic series                                          *)
(* ------------------------------------------------------------------ *)

type scaling_row = {
  step : int;
  log2_n : float;
  log2_f : float;
  log2_ratio : float;
  log2_time : float;
  bits : float;
}

let log2 x = Float.log x /. Float.log 2.0

let log2_add a b =
  let hi = Float.max a b and lo = Float.min a b in
  if hi -. lo > 60.0 then hi else hi +. log2 (1.0 +. (2.0 ** (lo -. hi)))

(* One boosting iteration in log domain. [log2_f'] is the resilience after
   the iteration; the level's window is (2m)^k with 2m = k for even k. *)
let iterate_level ~k ~log2_f' ~log2_n ~log2_time ~bits =
  let fk = float_of_int k in
  let log2_window = fk *. log2 fk in
  let log2_overhead = log2 3.0 +. log2_f' +. log2_window in
  let log2_c = log2_overhead in
  ( log2_n +. log2 fk,
    log2_add log2_time log2_overhead,
    bits +. log2_c +. 1.0 )

let base_row =
  (* A(4,1): n = 4, f = 1, T <= 2304 (Corollary 1 with k = 4), and
     S = 12 + 11 + 1 bits (trivial counter mod 2304, a-register, d-bit). *)
  {
    step = 0;
    log2_n = 2.0;
    log2_f = 0.0;
    log2_ratio = 2.0;
    log2_time = log2 2304.0;
    bits = 24.0;
  }

let theorem2_series ~epsilon ~iterations =
  let h = float_of_int (h_of_epsilon epsilon) in
  let k = int_of_float (2.0 *. h) in
  let rows = ref [ base_row ] in
  let current = ref base_row in
  for i = 1 to iterations do
    let log2_f = float_of_int i *. log2 h in
    let log2_n, log2_time, bits =
      iterate_level ~k ~log2_f':log2_f ~log2_n:!current.log2_n
        ~log2_time:!current.log2_time ~bits:!current.bits
    in
    let row =
      {
        step = i;
        log2_n;
        log2_f;
        log2_ratio = log2_n -. log2_f;
        log2_time;
        bits;
      }
    in
    current := row;
    rows := row :: !rows
  done;
  List.rev !rows

let theorem3_series ~phases =
  if phases < 1 then invalid_arg "Plan.theorem3_series: phases < 1";
  let rows = ref [ base_row ] in
  let current = ref base_row in
  let step = ref 0 in
  for p = 1 to phases do
    let kp = 4 * Stdx.Imath.pow 2 (phases - p) in
    let iterations = 2 * kp in
    for _ = 1 to iterations do
      incr step;
      let log2_f = !current.log2_f +. log2 (float_of_int kp /. 2.0) in
      let log2_n, log2_time, bits =
        iterate_level ~k:kp ~log2_f':log2_f ~log2_n:!current.log2_n
          ~log2_time:!current.log2_time ~bits:!current.bits
      in
      current :=
        {
          step = !step;
          log2_n;
          log2_f;
          log2_ratio = log2_n -. log2_f;
          log2_time;
          bits;
        }
    done;
    rows := !current :: !rows
  done;
  List.rev !rows
