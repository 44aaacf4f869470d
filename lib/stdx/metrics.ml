(* A mutex-protected registry of named instruments. Every public
   operation takes the lock once; the instruments are plain mutable
   cells only ever touched under it, so concurrent Pool workers
   recording into a shared registry never lose updates.

   The instruments sit in parallel arrays sorted by name, the first
   [len] slots in use. A name is found by binary search, or within a
   few slots of the caller's last hit: a sorted batch (a run's counters
   through [record], a cell's registry through [add]) is applied
   in one forward walk, and as a registry keeps the strings it was
   first given, a name passed again is usually the very same string,
   compared by address. A snapshot is read off in order, with no sort.

   [clear] empties a registry but keeps each instrument's storage in an
   idle slot ([live] false): any use revives it, zeroed, exactly as if
   the name were new, so a cleared registry behaves as a fresh one and
   a campaign worker reuses one registry for all its cells. *)

type hist = {
  edges : float array;
  hcounts : int array; (* length = Array.length edges + 1 (overflow) *)
  mutable hcount : int;
  mutable hsum : float;
}

(* [Vacant] is what a lookup reads where no live instrument is; it is
   never stored. *)
type cell = C of int ref | H of hist | Vacant

type t = {
  lock : Mutex.t;
  mutable names : string array;
  mutable cells : cell array;
  mutable live : bool array;
  mutable len : int;
  mutable last : int;  (* the slot the last single-name call touched *)
}

let create () =
  {
    lock = Mutex.create ();
    names = [||];
    cells = [||];
    live = [||];
    len = 0;
    last = 0;
  }

let geometric ~first ~ratio ~n =
  Array.init n (fun i -> first *. (ratio ** float_of_int i))

let default_buckets = geometric ~first:1.0 ~ratio:2.0 ~n:17 (* 1 .. 65536 *)
let time_buckets = geometric ~first:1e-4 ~ratio:2.0 ~n:21 (* 0.1ms .. ~105s *)

let check_finite who x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Metrics.%s: non-finite value" who)

let check_edges edges =
  let n = Array.length edges in
  if n = 0 then invalid_arg "Metrics.observe: empty bucket layout";
  for i = 0 to n - 1 do
    check_finite "observe" edges.(i);
    if i > 0 && edges.(i) <= edges.(i - 1) then
      invalid_arg "Metrics.observe: buckets must be strictly increasing"
  done

let rec same_from (a : float array) (b : float array) i =
  i < 0 || (Float.equal a.(i) b.(i) && same_from a b (i - 1))

let same_edges (a : float array) b =
  a == b
  || (Array.length a = Array.length b && same_from a b (Array.length a - 1))

(* Run [f t x] under the lock. [f] is a closed function, so taking the
   lock allocates nothing. *)
let locked t f x =
  Mutex.lock t.lock;
  match f t x with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.unlock t.lock;
    Printexc.raise_with_backtrace e bt

let kind_error name want =
  invalid_arg (Printf.sprintf "Metrics: %S is not a %s" name want)

(* The slot of [name], or where it would be inserted. [hint] is where
   the caller expects it: the next few slots from there are tried by
   address first, then the end, where a sorted batch adds its new
   names. *)
let rec scan t name j stop =
  if j >= stop then -1
  else if t.names.(j) == name then j
  else scan t name (j + 1) stop

let seek t hint name =
  let j = scan t name hint (Int.min t.len (hint + 8)) in
  if j >= 0 then j
  else if t.len = 0 || String.compare t.names.(t.len - 1) name < 0 then t.len
  else begin
    let lo = ref 0 and hi = ref t.len in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if String.compare t.names.(mid) name < 0 then lo := mid + 1
      else hi := mid
    done;
    !lo
  end

let present t i name =
  i < t.len && (t.names.(i) == name || String.equal t.names.(i) name)

let insert t i name cell =
  if t.len = Array.length t.names then begin
    let cap = Int.max 16 (2 * t.len) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.names <- grow t.names name;
    t.cells <- grow t.cells cell;
    t.live <- grow t.live true
  end;
  if i < t.len then begin
    Array.blit t.names i t.names (i + 1) (t.len - i);
    Array.blit t.cells i t.cells (i + 1) (t.len - i);
    Array.blit t.live i t.live (i + 1) (t.len - i)
  end;
  t.names.(i) <- name;
  t.cells.(i) <- cell;
  t.live.(i) <- true;
  t.len <- t.len + 1

(* First bucket whose upper bound the sample does not exceed; the last
   slot is the overflow bucket. *)
let rec bucket_from (edges : float array) x i =
  if i >= Array.length edges || x <= edges.(i) then i
  else bucket_from edges x (i + 1)

let hist_observe h x =
  let i = bucket_from h.edges x 0 in
  h.hcounts.(i) <- h.hcounts.(i) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. x

(* The registry never writes a layout, so the private default one is
   shared; a caller's array is checked and copied, as the caller may
   write it later. *)
let fresh_hist edges =
  if edges != default_buckets then check_edges edges;
  {
    edges = (if edges == default_buckets then edges else Array.copy edges);
    hcounts = Array.make (Array.length edges + 1) 0;
    hcount = 0;
    hsum = 0.0;
  }

(* The live instrument at slot [i] for [name], or [Vacant]; where there
   is none, the idle one to revive there, or [Vacant]. *)
let live t i name =
  if present t i name && t.live.(i) then t.cells.(i) else Vacant

let idle t i name = if present t i name then t.cells.(i) else Vacant

(* Slot [i] made to hold [name] live with a new [cell]: over its idle
   instrument, or inserted. *)
let put t i name cell =
  if present t i name then begin
    t.cells.(i) <- cell;
    t.live.(i) <- true
  end
  else insert t i name cell

(* Slot [i], with no live instrument, made a live histogram with layout
   [edges]: an idle one of that layout revived at zero, else a new one. *)
let hist_slot t i name edges =
  match idle t i name with
  | H h when same_edges h.edges edges ->
    Array.fill h.hcounts 0 (Array.length h.hcounts) 0;
    h.hcount <- 0;
    h.hsum <- 0.0;
    t.live.(i) <- true;
    h
  | C _ | H _ | Vacant ->
    let h = fresh_hist edges in
    put t i name (H h);
    h

(* Caller holds the lock. *)
let count_at t i name by =
  match live t i name with
  | C r -> r := !r + by
  | H _ -> kind_error name "counter"
  | Vacant -> (
    match idle t i name with
    | C r ->
      r := by;
      t.live.(i) <- true
    | H _ | Vacant -> put t i name (C (ref by)))

(* Caller holds the lock; each returns the slot it touched. *)
let add_count t hint name by =
  let i = seek t hint name in
  count_at t i name by;
  i

let add_sample ?buckets t hint name x =
  check_finite "observe" x;
  let i = seek t hint name in
  let h =
    match live t i name with
    | H h ->
      (match buckets with
      | Some b when not (same_edges h.edges b) ->
        invalid_arg
          (Printf.sprintf "Metrics: %S has a different bucket layout" name)
      | _ -> ());
      h
    | C _ -> kind_error name "histogram"
    | Vacant ->
      hist_slot t i name (Option.value buckets ~default:default_buckets)
  in
  hist_observe h x;
  i

(* Single-name calls look from just before the last one's slot: a
   caller that alternates a few names (a campaign's cell wall and cell
   count) finds each by address. *)
let near_last t = Int.max 0 (t.last - 1)

let incr ?(by = 1) t name =
  locked t
    (fun t (name, by) -> t.last <- add_count t (near_last t) name by)
    (name, by)

let observe ?buckets t name x =
  locked t
    (fun t (buckets, name, x) ->
      t.last <- add_sample ?buckets t (near_last t) name x)
    (buckets, name, x)

type update = Incr of string * int | Observe of string * float

let rec apply t hint = function
  | [] -> ()
  | Incr (name, by) :: rest -> apply t (add_count t hint name by) rest
  | Observe (name, x) :: rest -> apply t (add_sample t hint name x) rest

let record t updates = locked t (fun t updates -> apply t 0 updates) updates

let clear t = locked t (fun t () -> Array.fill t.live 0 t.len false) ()

let wall_clock () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

type histogram = {
  buckets : float array;
  counts : int array;
  count : int;
  sum : float;
}

type value = Counter of int | Histogram of histogram

type snapshot = (string * value) list

let snapshot t =
  locked t
    (fun t () ->
      let acc = ref [] in
      for i = t.len - 1 downto 0 do
        let value =
          match live t i t.names.(i) with
          | Vacant -> None
          | C r -> Some (Counter !r)
          | H h ->
            Some
              (Histogram
                 {
                   buckets = Array.copy h.edges;
                   counts = Array.copy h.hcounts;
                   count = h.hcount;
                   sum = h.hsum;
                 })
        in
        Option.iter (fun v -> acc := (t.names.(i), v) :: !acc) value
      done;
      !acc)
    ()

let find snap name = List.assoc_opt name snap

(* Add instrument [c] of another registry into [t] as [name]: counts,
   bucket counts and the float sum. With [dry], only raise where the add
   would, changing nothing. Caller holds the lock; returns the slot. *)
let add_instrument ~dry t hint name c =
  let i = seek t hint name in
  (match (c, live t i name) with
  | C _, H _ -> kind_error name "counter"
  | H _, C _ -> kind_error name "histogram"
  | H from, H h when not (same_edges h.edges from.edges) ->
    invalid_arg (Printf.sprintf "Metrics.merge: %S bucket layout mismatch" name)
  | _ when dry -> ()
  | C by, _ -> count_at t i name !by
  | H from, into ->
    let h =
      match into with H h -> h | C _ | Vacant -> hist_slot t i name from.edges
    in
    for k = 0 to Array.length from.hcounts - 1 do
      h.hcounts.(k) <- h.hcounts.(k) + from.hcounts.(k)
    done;
    h.hcount <- h.hcount + from.hcount;
    h.hsum <- h.hsum +. from.hsum
  | Vacant, _ -> ());
  i

(* [from] is quiescent (see the interface), so it is read unlocked:
   only [t]'s lock is taken, and two registries never wait on each
   other. It is walked twice, first only to check, so an add that
   raises leaves [t] as it was. *)
let add t from =
  locked t
    (fun t from ->
      List.iter
        (fun dry ->
          let hint = ref 0 in
          for j = 0 to from.len - 1 do
            if from.live.(j) then
              hint :=
                add_instrument ~dry t !hint from.names.(j) from.cells.(j)
          done)
        [ true; false ])
    from

(* A snapshot is sorted by name, as a registry's slots are. *)
let merge t snap =
  let instrument = function
    | Counter c -> C (ref c)
    | Histogram h ->
      H { edges = h.buckets; hcounts = h.counts; hcount = h.count; hsum = h.sum }
  in
  let len = List.length snap in
  add t
    {
      (create ()) with
      names = Array.of_list (List.map fst snap);
      cells = Array.of_list (List.map (fun (_, v) -> instrument v) snap);
      live = Array.make len true;
      len;
    }

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let json_float = Json.float_to_string

let to_table snap =
  let table = Table.create [ "metric"; "kind"; "value"; "detail" ] in
  List.iter
    (fun (name, v) ->
      let kind, value, detail =
        match v with
        | Counter c -> ("counter", string_of_int c, "")
        | Histogram h ->
          ( "histogram",
            string_of_int h.count,
            Printf.sprintf "sum %g, mean %g" h.sum
              (if h.count = 0 then 0.0 else h.sum /. float_of_int h.count) )
      in
      Table.add_row table [ name; kind; value; detail ])
    snap;
  table

let to_json snap =
  let entries kind to_s =
    List.filter_map
      (fun (name, v) ->
        Option.map
          (fun s -> Printf.sprintf "\"%s\":%s" (Json.escape name) s)
          (to_s v))
      snap
    |> String.concat ","
    |> Printf.sprintf "\"%s\":{%s}" kind
  in
  let counters = function Counter c -> Some (string_of_int c) | _ -> None in
  let hists = function
    | Histogram h ->
      Some
        (Printf.sprintf "{\"buckets\":[%s],\"counts\":[%s],\"count\":%d,\"sum\":%s}"
           (String.concat ","
              (List.map json_float (Array.to_list h.buckets)))
           (String.concat ","
              (List.map string_of_int (Array.to_list h.counts)))
           h.count (json_float h.sum))
    | _ -> None
  in
  Printf.sprintf "{%s,%s}"
    (entries "counters" counters)
    (entries "histograms" hists)
