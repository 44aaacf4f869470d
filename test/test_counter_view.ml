(* Tests for the (r, y, b) interpretation of block counters
   (Section 3.2) and for Lemma 1's dwell-time behaviour. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let params ~tau ~m ~level = Counting.Counter_view.make_params ~tau ~m ~level ()

let test_modulus () =
  (* tau (2m)^(i+1) *)
  check Alcotest.int "level 0" (9 * 4) (Counting.Counter_view.modulus (params ~tau:9 ~m:2 ~level:0));
  check Alcotest.int "level 2" (9 * 64) (Counting.Counter_view.modulus (params ~tau:9 ~m:2 ~level:2))

let test_of_value_basics () =
  let p = params ~tau:9 ~m:2 ~level:0 in
  let v = Counting.Counter_view.of_value p 0 in
  check Alcotest.int "r" 0 v.Counting.Counter_view.r;
  check Alcotest.int "y" 0 v.Counting.Counter_view.y;
  check Alcotest.int "b" 0 v.Counting.Counter_view.b;
  let v = Counting.Counter_view.of_value p 10 in
  check Alcotest.int "r of 10" 1 v.Counting.Counter_view.r;
  check Alcotest.int "y of 10" 1 v.Counting.Counter_view.y;
  check Alcotest.int "b of 10" 1 v.Counting.Counter_view.b

let test_b_cycles_twice () =
  (* Lemma 1: b cycles through [m] exactly twice per c_i period. *)
  let p = params ~tau:6 ~m:3 ~level:0 in
  let c = Counting.Counter_view.modulus p in
  let pointer_changes = ref 0 in
  let prev = ref (-1) in
  for v = 0 to c - 1 do
    let b = (Counting.Counter_view.of_value p v).Counting.Counter_view.b in
    if b <> !prev then begin
      incr pointer_changes;
      prev := b
    end
  done;
  check Alcotest.int "2m pointer segments" (2 * 3) !pointer_changes

let test_roundtrip =
  qcheck "of_value splits v into y * tau + r"
    QCheck.(triple (int_range 0 100000) (int_range 1 5) (int_range 0 3))
    (fun (v, m, level) ->
      let p = params ~tau:9 ~m ~level in
      let c = Counting.Counter_view.modulus p in
      let v = v mod c in
      let view = Counting.Counter_view.of_value p v in
      (view.Counting.Counter_view.y * 9) + view.Counting.Counter_view.r = v)

let test_fields_in_range =
  qcheck "decoded fields stay in range (also for garbage values)"
    QCheck.(triple int (int_range 1 5) (int_range 0 3))
    (fun (v, m, level) ->
      let p = params ~tau:12 ~m ~level in
      let view = Counting.Counter_view.of_value p v in
      view.Counting.Counter_view.r >= 0
      && view.Counting.Counter_view.r < 12
      && view.Counting.Counter_view.b >= 0
      && view.Counting.Counter_view.b < m
      && view.Counting.Counter_view.y >= 0)

let test_r_increments =
  qcheck "advancing the counter by 1 advances r by 1 mod tau"
    QCheck.(pair (int_range 0 100000) (int_range 1 4))
    (fun (v, m) ->
      let p = params ~tau:9 ~m ~level:1 in
      let view v = Counting.Counter_view.of_value p v in
      ((view v).Counting.Counter_view.r + 1) mod 9
      = (view (v + 1)).Counting.Counter_view.r)

let test_dwell_length () =
  (* c_{i-1} = tau (2m)^i; level 0 dwells tau rounds. *)
  check Alcotest.int "level 0" 9 (Counting.Counter_view.dwell_length (params ~tau:9 ~m:2 ~level:0));
  check Alcotest.int "level 1" 36 (Counting.Counter_view.dwell_length (params ~tau:9 ~m:2 ~level:1))

let test_dwell_is_real =
  qcheck "pointer holds exactly dwell_length consecutive rounds"
    QCheck.(pair (int_range 0 3000) (int_range 1 3))
    (fun (start, m) ->
      if m = 1 then true (* a single candidate leader never changes *)
      else begin
        let p = params ~tau:6 ~m ~level:1 in
        let dwell = Counting.Counter_view.dwell_length p in
        (* find the next pointer change after [start], then check the
           segment length is exactly [dwell] *)
        let b_at round = Counting.Counter_view.pointer_at p ~start_value:0 ~round in
        let rec find_change r =
          if b_at r <> b_at (r + 1) then r + 1 else find_change (r + 1)
        in
        let seg_start = find_change start in
        let b = b_at seg_start in
        let rec count r acc = if b_at r = b then count (r + 1) (acc + 1) else acc in
        count seg_start 0 = dwell
      end)

let test_lemma1_every_pointer_appears () =
  (* Lemma 1: within c_i rounds a stabilised block points to every
     beta in [m] for at least c_{i-1} consecutive rounds. *)
  let p = params ~tau:6 ~m:3 ~level:1 in
  let ci = Counting.Counter_view.modulus p in
  let dwell = Counting.Counter_view.dwell_length p in
  List.iter
    (fun start_value ->
      let longest = Array.make 3 0 in
      let current = ref 0 and current_b = ref (-1) in
      for round = 0 to ci - 1 do
        let b = Counting.Counter_view.pointer_at p ~start_value ~round in
        if b = !current_b then incr current
        else begin
          current_b := b;
          current := 1
        end;
        if !current > longest.(b) then longest.(b) <- !current
      done;
      Array.iteri
        (fun beta len ->
          if len < dwell then
            Alcotest.failf
              "start=%d: pointer %d held only %d < %d rounds within c_i"
              start_value beta len dwell)
        longest)
    [ 0; 17; 100; ci - 1 ]

let test_make_params_validation () =
  check Alcotest.bool "tau < 1 rejected" true
    (try ignore (params ~tau:0 ~m:2 ~level:0); false
     with Invalid_argument _ -> true);
  check Alcotest.bool "negative level rejected" true
    (try ignore (params ~tau:9 ~m:2 ~level:(-1)); false
     with Invalid_argument _ -> true)

let suite =
  [
    ( "counter_view",
      [
        case "modulus" test_modulus;
        case "of_value basics" test_of_value_basics;
        case "b cycles through [m] twice" test_b_cycles_twice;
        test_roundtrip;
        test_fields_in_range;
        test_r_increments;
        case "dwell lengths" test_dwell_length;
        test_dwell_is_real;
        case "Lemma 1: every pointer appears long enough"
          test_lemma1_every_pointer_appears;
        case "params validation" test_make_params_validation;
      ] );
  ]
