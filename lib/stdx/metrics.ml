(* Mutex-protected name -> instrument table. Every public operation
   takes the lock once; the instruments themselves are plain mutable
   cells only ever touched under the lock, so concurrent Pool workers
   recording into a shared registry never lose updates. *)

type hist = {
  edges : float array;
  hcounts : int array; (* length = Array.length edges + 1 (overflow) *)
  mutable hcount : int;
  mutable hsum : float;
}

type cell = C of int ref | G of float ref | H of hist

type t = { lock : Mutex.t; cells : (string, cell) Hashtbl.t }

let create () = { lock = Mutex.create (); cells = Hashtbl.create 32 }

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

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let kind_error name want =
  invalid_arg (Printf.sprintf "Metrics: %S is not a %s" name want)

let incr ?(by = 1) t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some (C r) -> r := !r + by
      | Some _ -> kind_error name "counter"
      | None -> Hashtbl.add t.cells name (C (ref by)))

let set_gauge t name x =
  check_finite "set_gauge" x;
  locked t (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some (G r) -> r := x
      | Some _ -> kind_error name "gauge"
      | None -> Hashtbl.add t.cells name (G (ref x)))

(* First bucket whose upper bound the sample does not exceed; the last
   slot is the overflow bucket. *)
let bucket_of edges x =
  let n = Array.length edges in
  let rec go i = if i >= n || x <= edges.(i) then i else go (i + 1) in
  go 0

let hist_observe h x =
  let i = bucket_of h.edges x in
  h.hcounts.(i) <- h.hcounts.(i) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. x

let fresh_hist edges =
  {
    edges = Array.copy edges;
    hcounts = Array.make (Array.length edges + 1) 0;
    hcount = 0;
    hsum = 0.0;
  }

let observe ?buckets t name x =
  check_finite "observe" x;
  locked t (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some (H h) ->
        (match buckets with
        | Some b when h.edges <> b ->
          invalid_arg
            (Printf.sprintf "Metrics: %S has a different bucket layout" name)
        | _ -> ());
        hist_observe h x
      | Some _ -> kind_error name "histogram"
      | None ->
        let buckets = Option.value buckets ~default:default_buckets in
        check_edges buckets;
        let h = fresh_hist buckets in
        hist_observe h x;
        Hashtbl.add t.cells name (H h))

let wall_clock () = Unix.gettimeofday ()

(* gettimeofday is not monotonic: NTP steps (or a VM migration) can move
   it backwards mid-measurement, and a negative duration fed into a
   histogram poisons its sum. Clamp every elapsed reading at zero. *)
let elapsed ~clock t0 = Float.max 0.0 (clock () -. t0)

let timed ?(buckets = time_buckets) ?(clock = wall_clock) t name f =
  let t0 = clock () in
  let record () = elapsed ~clock t0 in
  match f () with
  | v ->
    let wall = record () in
    observe ~buckets t name wall;
    (v, wall)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    observe ~buckets t name (record ());
    Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

type histogram = {
  buckets : float array;
  counts : int array;
  count : int;
  sum : float;
}

type value = Counter of int | Gauge of float | Histogram of histogram

type snapshot = (string * value) list

let snapshot t =
  locked t (fun () ->
      Hashtbl.fold
        (fun name cell acc ->
          let v =
            match cell with
            | C r -> Counter !r
            | G r -> Gauge !r
            | H h ->
              Histogram
                {
                  buckets = Array.copy h.edges;
                  counts = Array.copy h.hcounts;
                  count = h.hcount;
                  sum = h.hsum;
                }
          in
          (name, v) :: acc)
        t.cells [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)


let find snap name = List.assoc_opt name snap

(* A histogram's float sum is the one part of a merge whose result
   depends on the order snapshots arrive in (float addition does not
   associate), and a gauge keeps the last write; counters and bucket
   counts are integer adds. [merge_counts] applies the commutative part,
   [ordered] keeps the rest for [merge_ordered]; each takes the lock
   once per snapshot. *)
type rest = Sum of float | Set of float

type ordered = (string * rest) list

let ordered snap =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Counter _ -> None
      | Gauge x -> Some (name, Set x)
      | Histogram hg -> Some (name, Sum hg.sum))
    snap

let merge_counts t snap =
  locked t (fun () ->
      List.iter
        (fun (name, v) ->
          match (v, Hashtbl.find_opt t.cells name) with
          | Counter by, Some (C r) -> r := !r + by
          | Counter by, None -> Hashtbl.add t.cells name (C (ref by))
          | Counter _, Some _ -> kind_error name "counter"
          | Gauge _, (None | Some (G _)) -> ()
          | Gauge _, Some _ -> kind_error name "gauge"
          | Histogram hg, found ->
            let h =
              match found with
              | Some (H h) ->
                if h.edges <> hg.buckets then
                  invalid_arg
                    (Printf.sprintf "Metrics.merge: %S bucket layout mismatch"
                       name);
                h
              | Some _ -> kind_error name "histogram"
              | None ->
                check_edges hg.buckets;
                let h = fresh_hist hg.buckets in
                Hashtbl.add t.cells name (H h);
                h
            in
            Array.iteri
              (fun i c -> h.hcounts.(i) <- h.hcounts.(i) + c)
              hg.counts;
            h.hcount <- h.hcount + hg.count)
        snap)

let merge_ordered t rest =
  locked t (fun () ->
      List.iter
        (fun (name, r) ->
          match (r, Hashtbl.find_opt t.cells name) with
          | Sum x, Some (H h) -> h.hsum <- h.hsum +. x
          | Sum _, _ -> kind_error name "histogram"
          | Set x, Some (G r) -> r := x
          | Set x, None -> Hashtbl.add t.cells name (G (ref x))
          | Set _, Some _ -> kind_error name "gauge")
        rest)

let merge t snap =
  merge_counts t snap;
  merge_ordered t (ordered snap)

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let json_float x = Printf.sprintf "%.17g" x

let to_table snap =
  let table = Table.create [ "metric"; "kind"; "value"; "detail" ] in
  List.iter
    (fun (name, v) ->
      let kind, value, detail =
        match v with
        | Counter c -> ("counter", string_of_int c, "")
        | Gauge g -> ("gauge", Printf.sprintf "%g" g, "")
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
  let gauges = function Gauge g -> Some (json_float g) | _ -> None in
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
  Printf.sprintf "{%s,%s,%s}"
    (entries "counters" counters)
    (entries "gauges" gauges)
    (entries "histograms" hists)
