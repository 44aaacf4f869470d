(* Periodic progress snapshots as self-describing JSONL.

   A heartbeat owns a mutex-protected progress ledger (cells done /
   total, cost done / total under the caller's cost model, rounds
   simulated, hunt hits by class, per-worker busy seconds) plus a live
   metrics registry, into which campaigns [add] each cell's private
   registry in cell-index order. The registry (and hence every line's
   metrics) is then the index-order merge of the cells added so far,
   bit for bit, at any jobs count; only wall-time fields and how far
   the registry lags the done-counters depend on the completion order.

   One JSON object per line, every line tagged {"kind":"heartbeat"};
   the last line carries "final":true. Beats are rate-limited by the
   configured interval and happen only in [cell_done], which carries
   the caller's clock reading; [finish] always emits (idempotently), so
   even a sub-second run produces one parseable line. The heartbeat
   reads its own clock in [create] and [finish] only. *)

type t = {
  lock : Mutex.t;
  out : out_channel;
  clock : unit -> float;
  interval_s : float;
  label : string;
  started : float;
  mutable seq : int;
  mutable last_emit : float;
  mutable cells_total : int;
  mutable cost_total : float;
  mutable cells_done : int;
  mutable cost_done : float;
  mutable rounds : int;
  mutable hits : (string * int) list;
  mutable worker_busy : float array;
  metrics : Metrics.t;
  mutable finished : bool;
}

let create ?(clock = Metrics.wall_clock) ?(label = "") ~interval_s ~out () =
  if not (Float.is_finite interval_s) || interval_s < 0.0 then
    invalid_arg "Heartbeat.create: interval must be finite and non-negative";
  let now = clock () in
  {
    lock = Mutex.create ();
    out;
    clock;
    interval_s;
    label;
    started = now;
    seq = 0;
    (* First regular beat waits a full interval after start. *)
    last_emit = now;
    cells_total = 0;
    cost_total = 0.0;
    cells_done = 0;
    cost_done = 0.0;
    rounds = 0;
    hits = [];
    worker_busy = [||];
    metrics = Metrics.create ();
    finished = false;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* Emission *)
(* ------------------------------------------------------------------ *)

let json_float = Json.float_to_string

(* Caller holds the lock. *)
let emit_line t ~final ~now =
  t.seq <- t.seq + 1;
  let elapsed = Float.max 0.0 (now -. t.started) in
  (* Extrapolate the modelled cost; when no announced cost is left
     (cells priced only as they finish), the cell count instead. *)
  let project done_ total =
    if done_ > 0.0 && total > done_ then
      json_float (elapsed *. (total -. done_) /. done_)
    else "null"
  in
  let eta =
    if t.cost_total > t.cost_done then project t.cost_done t.cost_total
    else project (float_of_int t.cells_done) (float_of_int t.cells_total)
  in
  let hits =
    List.sort (fun (a, _) (b, _) -> String.compare a b) t.hits
    |> List.map (fun (cls, n) -> Printf.sprintf "\"%s\":%d" (Json.escape cls) n)
    |> String.concat ","
  in
  let workers = Array.length t.worker_busy in
  let busy = Array.fold_left ( +. ) 0.0 t.worker_busy in
  let utilization =
    if workers = 0 || elapsed <= 0.0 then 0.0
    else busy /. (float_of_int workers *. elapsed)
  in
  let gc = Gc.quick_stat () in
  Printf.fprintf t.out
    "{\"kind\":\"heartbeat\",\"label\":\"%s\",\"seq\":%d,\"final\":%b,\
     \"t_s\":%s,\"eta_s\":%s,\
     \"cells_done\":%d,\"cells_total\":%d,\
     \"cost_done\":%s,\"cost_total\":%s,\"rounds\":%d,\
     \"hits\":{%s},\
     \"workers\":{\"count\":%d,\"busy_s\":[%s],\"utilization\":%s},\
     \"gc\":{\"minor_words\":%s,\"major_words\":%s,\"heap_words\":%d,\
     \"compactions\":%d},\
     \"metrics\":%s}\n"
    (Json.escape t.label) t.seq final (json_float elapsed) eta t.cells_done
    t.cells_total (json_float t.cost_done) (json_float t.cost_total) t.rounds
    hits workers
    (String.concat ","
       (List.map json_float (Array.to_list t.worker_busy)))
    (json_float utilization) (json_float gc.Gc.minor_words)
    (json_float gc.Gc.major_words) gc.Gc.heap_words gc.Gc.compactions
    (Metrics.to_json (Metrics.snapshot t.metrics));
  flush t.out;
  t.last_emit <- now

(* Workers read [now] before they take the lock, so a reading can be
   older than the last beat's; clamped to it, beats stay in time order
   and a zero interval still beats on every cell. *)
let maybe_emit t ~now =
  let now = Float.max now t.last_emit in
  if (not t.finished) && now -. t.last_emit >= t.interval_s then
    emit_line t ~final:false ~now

(* ------------------------------------------------------------------ *)
(* Progress ledger *)
(* ------------------------------------------------------------------ *)

let set_totals t ~cells ~cost =
  locked t (fun () ->
      t.cells_total <- t.cells_total + cells;
      t.cost_total <- t.cost_total +. cost)

let cell_done ?(rounds = 0) ~worker ~busy_s ~now ~cost t =
  locked t (fun () ->
      t.cells_done <- t.cells_done + 1;
      t.cost_done <- t.cost_done +. cost;
      t.rounds <- t.rounds + rounds;
      let worker = max 0 worker in
      if worker >= Array.length t.worker_busy then begin
        let grown = Array.make (worker + 1) 0.0 in
        Array.blit t.worker_busy 0 grown 0 (Array.length t.worker_busy);
        t.worker_busy <- grown
      end;
      t.worker_busy.(worker) <- t.worker_busy.(worker) +. Float.max 0.0 busy_s;
      maybe_emit t ~now)

(* The live registry has its own lock, so merging into it needs no
   ledger lock: a beat snapshots the registry under the registry's. *)
let add t cell = Metrics.add t.metrics cell

let hit t cls =
  locked t (fun () ->
      match List.assoc_opt cls t.hits with
      | Some n -> t.hits <- (cls, n + 1) :: List.remove_assoc cls t.hits
      | None -> t.hits <- (cls, 1) :: t.hits)

let finish t =
  locked t (fun () ->
      if not t.finished then begin
        emit_line t ~final:true ~now:(t.clock ());
        t.finished <- true
      end)

(* --- reading a stream ------------------------------------------------- *)

type view = {
  label : string;
  seq : int;
  final : bool;
  t_s : float;
  eta_s : float option;
  cells_done : int;
  cells_total : int;
  cost_done : float;
  cost_total : float;
  rounds : int;
  hits : (string * int) list;
  workers : int;
  utilization : float;
  heap_words : int;
}

let complete_lines content =
  match String.rindex_opt content '\n' with
  | None -> []
  | Some last -> List.of_seq (Json.lines (String.sub content 0 last))

let is_heartbeat_line line =
  match Json.parse_result line with
  | Error _ -> false
  | Ok j -> (
    match Json.field_opt j "kind" with
    | Some (Json.String "heartbeat") -> true
    | _ -> false
    | exception Json.Parse_error _ -> false)

let view_of_line line =
  let open Json in
  match
    let j = parse line in
    let workers = field j "workers" in
    let gc = field j "gc" in
    {
      label = to_string "label" (field j "label");
      seq = to_int "seq" (field j "seq");
      final = to_bool "final" (field j "final");
      t_s = to_float "t_s" (field j "t_s");
      eta_s =
        (match field j "eta_s" with
        | Null -> None
        | v -> Some (to_float "eta_s" v));
      cells_done = to_int "cells_done" (field j "cells_done");
      cells_total = to_int "cells_total" (field j "cells_total");
      cost_done = to_float "cost_done" (field j "cost_done");
      cost_total = to_float "cost_total" (field j "cost_total");
      rounds = to_int "rounds" (field j "rounds");
      hits =
        (match field j "hits" with
        | Object kvs -> List.map (fun (k, v) -> (k, to_int k v)) kvs
        | _ -> raise (Parse_error "heartbeat: hits must be an object"));
      workers = to_int "count" (field workers "count");
      utilization = to_float "utilization" (field workers "utilization");
      heap_words = to_int "heap_words" (field gc "heap_words");
    }
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let latest ~path content =
  match List.rev (complete_lines content) with
  | [] -> Error (Printf.sprintf "%s: no heartbeat lines" path)
  | (lineno, last) :: _ -> (
    match view_of_line last with
    | Error msg -> Error (Printf.sprintf "%s: line %d: %s" path lineno msg)
    | Ok v -> Ok (last, v))
