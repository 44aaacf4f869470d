(* Allocation-light timing spans. A span context is a handful of
   immutable closures; the disabled context reduces every call site to
   one branch on [enabled], so instrumented hot paths cost nothing when
   observability is off. A live context knows what one read of its
   clock costs and leaves it out of every timed section. Recording
   clamps at zero (the clock is [Metrics.wall_clock], which can step
   backwards) and lands in a [Metrics] histogram named
   ["span.<name>_s"], optionally fanning out to an [on_record] hook —
   the seam the sim layer uses to emit structured trace events without
   stdx depending on it. *)

type t = {
  enabled : bool;
  clock : unit -> float;
  read_s : float;
  metrics : Metrics.t option;
  on_record : (string -> int -> float -> unit) option;
}

let disabled =
  {
    enabled = false;
    clock = (fun () -> 0.0);
    read_s = 0.0;
    metrics = None;
    on_record = None;
  }

(* What one read of [clock] costs: the least average over eight runs of
   256 back-to-back reads, so a microsecond clock still resolves a read
   of tens of nanoseconds and a run that lost the processor does not
   count. A clock that does not move over a run (a test's mock) reads
   0. *)
let read_cost clock =
  let reads = 256 in
  let run () =
    let t0 = clock () in
    for _ = 2 to reads do
      ignore (clock ())
    done;
    (clock () -. t0) /. float_of_int reads
  in
  let best = ref (run ()) in
  for _ = 2 to 8 do
    best := Float.min !best (run ())
  done;
  Float.max 0.0 !best

(* The wall clock's read cost, measured by the first context that needs
   it and shared by every later one, so a campaign's per-cell contexts
   do not each spin. A race measures twice and keeps either value. *)
let wall_read_s = Atomic.make Float.nan

let wall_read_cost () =
  let known = Atomic.get wall_read_s in
  if not (Float.is_nan known) then known
  else begin
    let measured = read_cost Metrics.wall_clock in
    Atomic.set wall_read_s measured;
    measured
  end

let create ?clock ?metrics ?on_record () =
  let clock, read_s =
    match clock with
    | Some clock -> (clock, read_cost clock)
    | None -> (Metrics.wall_clock, wall_read_cost ())
  in
  { enabled = true; clock; read_s; metrics; on_record }

let enabled t = t.enabled

let metric_name name = "span." ^ name ^ "_s"

let now t = t.clock ()

(* A section timed by two reads also holds about one read: the end of
   the first and the start of the second. Take [count] reads out of the
   sum, and clamp the sum, not each section: a microsecond clock reads
   a section of a few hundred nanoseconds as 0 mostly and as 1 us now
   and then, so a clamp per section would leave almost every read in. *)
let sections t count secs =
  Float.max 0.0 (secs -. (float_of_int count *. t.read_s))

let record ?(count = 1) t name secs =
  if t.enabled then begin
    let secs = Float.max 0.0 secs in
    (match t.metrics with
    | Some m ->
      Metrics.observe ~buckets:Metrics.time_buckets m (metric_name name) secs
    | None -> ());
    match t.on_record with Some f -> f name count secs | None -> ()
  end

let with_ t name f =
  if not t.enabled then f ()
  else begin
    let t0 = t.clock () in
    match f () with
    | v ->
      record t name (sections t 1 (t.clock () -. t0));
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      record t name (sections t 1 (t.clock () -. t0));
      Printexc.raise_with_backtrace e bt
  end
