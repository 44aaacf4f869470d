type event =
  | Meta of {
      label : string;
      n : int;
      f : int;
      c : int;
      time_bound : int option;
    }
  | Cell_start of { cell : int; label : string }
  | Phase_start of {
      round : int;
      phase : int;
      adversary : string;
      faulty : int list;
    }
  | Corruption of {
      round : int;
      phase : int;
      requested : int;
      victims : int list;
    }
  | Detector_reset of { round : int; phase : int }
  | Verdict of {
      round : int;
      phase : int;
      stabilized : int option;
      recovery : int option;
    }
  | Hunt_trial of { trial : int; seed : int; score : float; hit : bool }
  | Hunt_shrink of {
      trial : int;
      steps : int;
      kept : int;
      size : int;
      score : float;
    }
  | Span of { name : string; count : int; wall_s : float }
  | Cell_end of { cell : int; wall_s : float }

(* ------------------------------------------------------------------ *)
(* Encoding                                                             *)
(* ------------------------------------------------------------------ *)

let opt_int = function Some v -> string_of_int v | None -> "null"
let ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let to_json = function
  | Meta { label; n; f; c; time_bound } ->
    Printf.sprintf
      "{\"ev\":\"meta\",\"label\":\"%s\",\"n\":%d,\"f\":%d,\"c\":%d,\
       \"time_bound\":%s}"
      (Stdx.Json.escape label) n f c (opt_int time_bound)
  | Cell_start { cell; label } ->
    Printf.sprintf "{\"ev\":\"cell-start\",\"cell\":%d,\"label\":\"%s\"}" cell
      (Stdx.Json.escape label)
  | Phase_start { round; phase; adversary; faulty } ->
    Printf.sprintf
      "{\"ev\":\"phase-start\",\"round\":%d,\"phase\":%d,\"adversary\":\"%s\",\
       \"faulty\":%s}"
      round phase (Stdx.Json.escape adversary) (ints faulty)
  | Corruption { round; phase; requested; victims } ->
    Printf.sprintf
      "{\"ev\":\"corruption\",\"round\":%d,\"phase\":%d,\"requested\":%d,\
       \"victims\":%s}"
      round phase requested (ints victims)
  | Detector_reset { round; phase } ->
    Printf.sprintf "{\"ev\":\"detector-reset\",\"round\":%d,\"phase\":%d}"
      round phase
  | Verdict { round; phase; stabilized; recovery } ->
    Printf.sprintf
      "{\"ev\":\"verdict\",\"round\":%d,\"phase\":%d,\"stabilized\":%s,\
       \"recovery\":%s}"
      round phase (opt_int stabilized) (opt_int recovery)
  | Hunt_trial { trial; seed; score; hit } ->
    Printf.sprintf
      "{\"ev\":\"hunt-trial\",\"trial\":%d,\"seed\":%d,\"score\":%.17g,\
       \"hit\":%b}"
      trial seed score hit
  | Hunt_shrink { trial; steps; kept; size; score } ->
    Printf.sprintf
      "{\"ev\":\"hunt-shrink\",\"trial\":%d,\"steps\":%d,\"kept\":%d,\
       \"size\":%d,\"score\":%.17g}"
      trial steps kept size score
  | Span { name; count; wall_s } ->
    Printf.sprintf
      "{\"ev\":\"span\",\"name\":\"%s\",\"count\":%d,\"wall_s\":%.17g}"
      (Stdx.Json.escape name) count wall_s
  | Cell_end { cell; wall_s } ->
    Printf.sprintf "{\"ev\":\"cell-end\",\"cell\":%d,\"wall_s\":%.17g}" cell
      wall_s

(* ------------------------------------------------------------------ *)
(* Writers                                                              *)
(* ------------------------------------------------------------------ *)

type t = Null | Memory of event Queue.t | Jsonl of out_channel

let null = Null
let memory () = Memory (Queue.create ())
let jsonl oc = Jsonl oc
let seams_on = function Null -> false | Memory _ | Jsonl _ -> true

let emit t ev =
  match t with
  | Null -> ()
  | Memory buf -> Queue.push ev buf
  | Jsonl oc ->
    output_string oc (to_json ev);
    output_char oc '\n'

let events t =
  match t with
  | Memory buf -> List.of_seq (Queue.to_seq buf)
  | Null | Jsonl _ -> []

(* ------------------------------------------------------------------ *)
(* Decoding: the dual of [to_json], on the shared Stdx.Json value
   parser (the syntax-only checker lives in bin/jsonlint)              *)
(* ------------------------------------------------------------------ *)

let of_json line =
  match Stdx.Json.parse line with
  | exception Stdx.Json.Parse_error msg -> Error msg
  | j -> (
    try
      let i name = Stdx.Json.to_int name (Stdx.Json.field j name) in
      let str name = Stdx.Json.to_string name (Stdx.Json.field j name) in
      let fl name = Stdx.Json.to_float name (Stdx.Json.field j name) in
      let b name = Stdx.Json.to_bool name (Stdx.Json.field j name) in
      let opt_int name = Stdx.Json.to_opt_int name (Stdx.Json.field j name) in
      let ints name = Stdx.Json.to_ints name (Stdx.Json.field j name) in
      match str "ev" with
      | "meta" ->
        Ok
          (Meta
             {
               label = str "label";
               n = i "n";
               f = i "f";
               c = i "c";
               time_bound = opt_int "time_bound";
             })
      | "cell-start" -> Ok (Cell_start { cell = i "cell"; label = str "label" })
      | "phase-start" ->
        Ok
          (Phase_start
             {
               round = i "round";
               phase = i "phase";
               adversary = str "adversary";
               faulty = ints "faulty";
             })
      | "corruption" ->
        let victims = ints "victims" in
        (* Traces written before the clamp became visible carry no
           "requested" field; those events were never clamped beyond what
           the victims list shows. *)
        let requested =
          match Stdx.Json.field_opt j "requested" with
          | Some v -> Stdx.Json.to_int "requested" v
          | None -> List.length victims
        in
        Ok
          (Corruption { round = i "round"; phase = i "phase"; requested; victims })
      | "detector-reset" ->
        Ok (Detector_reset { round = i "round"; phase = i "phase" })
      | "verdict" ->
        Ok
          (Verdict
             {
               round = i "round";
               phase = i "phase";
               stabilized = opt_int "stabilized";
               recovery = opt_int "recovery";
             })
      | "hunt-trial" ->
        Ok
          (Hunt_trial
             {
               trial = i "trial";
               seed = i "seed";
               score = fl "score";
               hit = b "hit";
             })
      | "hunt-shrink" ->
        Ok
          (Hunt_shrink
             {
               trial = i "trial";
               steps = i "steps";
               kept = i "kept";
               size = i "size";
               score = fl "score";
             })
      | "span" ->
        Ok (Span { name = str "name"; count = i "count"; wall_s = fl "wall_s" })
      | "cell-end" ->
        Ok (Cell_end { cell = i "cell"; wall_s = fl "wall_s" })
      | ev -> Error (Printf.sprintf "unknown event kind %S" ev)
    with Stdx.Json.Parse_error msg -> Error msg)

let parse_jsonl s =
  let rec go acc lines =
    match lines () with
    | Seq.Nil -> Ok (List.rev acc)
    | Seq.Cons ((lineno, line), rest) -> (
      match of_json line with
      | Ok ev -> go (ev :: acc) rest
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go [] (Stdx.Json.lines s)
