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

(* Each line is appended piece by piece into a buffer: literal keys, and
   values through the Stdx.Json appenders, so no format string is
   interpreted per event. *)
let add = Buffer.add_string

let int b key v =
  add b key;
  Stdx.Json.add_int b v

let float b key v =
  add b key;
  Stdx.Json.add_float b v

let str b key v =
  add b key;
  Buffer.add_char b '"';
  Stdx.Json.add_escaped b v;
  Buffer.add_char b '"'

let opt_int b key = function
  | Some v -> int b key v
  | None ->
    add b key;
    add b "null"

let ints b key l =
  add b key;
  Buffer.add_char b '[';
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Stdx.Json.add_int b v)
    l;
  Buffer.add_char b ']'

let add_json b = function
  | Meta { label; n; f; c; time_bound } ->
    str b {|{"ev":"meta","label":|} label;
    int b {|,"n":|} n;
    int b {|,"f":|} f;
    int b {|,"c":|} c;
    opt_int b {|,"time_bound":|} time_bound;
    add b "}"
  | Cell_start { cell; label } ->
    int b {|{"ev":"cell-start","cell":|} cell;
    str b {|,"label":|} label;
    add b "}"
  | Phase_start { round; phase; adversary; faulty } ->
    int b {|{"ev":"phase-start","round":|} round;
    int b {|,"phase":|} phase;
    str b {|,"adversary":|} adversary;
    ints b {|,"faulty":|} faulty;
    add b "}"
  | Corruption { round; phase; requested; victims } ->
    int b {|{"ev":"corruption","round":|} round;
    int b {|,"phase":|} phase;
    int b {|,"requested":|} requested;
    ints b {|,"victims":|} victims;
    add b "}"
  | Detector_reset { round; phase } ->
    int b {|{"ev":"detector-reset","round":|} round;
    int b {|,"phase":|} phase;
    add b "}"
  | Verdict { round; phase; stabilized; recovery } ->
    int b {|{"ev":"verdict","round":|} round;
    int b {|,"phase":|} phase;
    opt_int b {|,"stabilized":|} stabilized;
    opt_int b {|,"recovery":|} recovery;
    add b "}"
  | Hunt_trial { trial; seed; score; hit } ->
    int b {|{"ev":"hunt-trial","trial":|} trial;
    int b {|,"seed":|} seed;
    float b {|,"score":|} score;
    add b (if hit then {|,"hit":true}|} else {|,"hit":false}|})
  | Hunt_shrink { trial; steps; kept; size; score } ->
    int b {|{"ev":"hunt-shrink","trial":|} trial;
    int b {|,"steps":|} steps;
    int b {|,"kept":|} kept;
    int b {|,"size":|} size;
    float b {|,"score":|} score;
    add b "}"
  | Span { name; count; wall_s } ->
    str b {|{"ev":"span","name":|} name;
    int b {|,"count":|} count;
    float b {|,"wall_s":|} wall_s;
    add b "}"
  | Cell_end { cell; wall_s } ->
    int b {|{"ev":"cell-end","cell":|} cell;
    float b {|,"wall_s":|} wall_s;
    add b "}"

let to_json ev =
  let b = Buffer.create 96 in
  add_json b ev;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Writers                                                              *)
(* ------------------------------------------------------------------ *)

(* A memory sink holds its events newest first. A JSONL writer encodes
   each line into its own buffer and hands the channel one string per
   event. *)
type t = Null | Memory of event list ref | Jsonl of out_channel * Buffer.t

let null = Null
let memory () = Memory (ref [])
let jsonl oc = Jsonl (oc, Buffer.create 256)
let seams_on = function Null -> false | Memory _ | Jsonl _ -> true

let emit t ev =
  match t with
  | Null -> ()
  | Memory buf -> buf := ev :: !buf
  | Jsonl (oc, b) ->
    Buffer.clear b;
    add_json b ev;
    Buffer.add_char b '\n';
    Buffer.output_buffer oc b

let events t =
  match t with
  | Memory buf -> List.rev !buf
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
