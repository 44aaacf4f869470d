type 's phase = {
  adversary : 's Adversary.t;
  faulty : int list;
  duration : int;
}

type event = { round : int; victims : int }
type 's t = { phases : 's phase list; events : event list }

let total_rounds t =
  List.fold_left (fun acc p -> acc + p.duration) 0 t.phases

let validate_faulty ?(who = "Schedule") ~n ~f faulty =
  let sorted = List.sort_uniq Int.compare faulty in
  if List.length sorted <> List.length faulty then
    invalid_arg (who ^ ": duplicate faulty ids");
  if List.exists (fun v -> v < 0 || v >= n) faulty then
    invalid_arg (who ^ ": faulty id out of range");
  if List.length faulty > f then
    invalid_arg
      (Printf.sprintf "%s: %d faulty nodes but resilience is %d" who
         (List.length faulty) f);
  Array.of_list sorted

let validate ~(spec : 's Algo.Spec.t) t =
  if t.phases = [] then invalid_arg "Schedule.validate: no phases";
  let n = spec.Algo.Spec.n and f = spec.Algo.Spec.f in
  let phases =
    List.mapi
      (fun i p ->
        if p.duration < 0 then
          invalid_arg
            (Printf.sprintf "Schedule.validate: phase %d has negative duration"
               i);
        let faulty =
          Array.to_list
            (validate_faulty
               ~who:(Printf.sprintf "Schedule.validate: phase %d" i)
               ~n ~f p.faulty)
        in
        { p with faulty })
      t.phases
  in
  let total = total_rounds { t with phases } in
  if total = 0 then
    invalid_arg
      "Schedule.validate: zero-round horizon (every phase has duration 0)";
  List.iter
    (fun e ->
      if e.victims < 0 then
        invalid_arg "Schedule.validate: event with negative victims";
      if e.round < 0 || e.round >= total then
        invalid_arg
          (Printf.sprintf
             "Schedule.validate: event at round %d outside horizon %d" e.round
             total))
    t.events;
  let events =
    List.stable_sort (fun a b -> Int.compare a.round b.round) t.events
  in
  { phases; events }

let static ~adversary ~faulty ~rounds =
  { phases = [ { adversary; faulty; duration = rounds } ]; events = [] }

(* Pull an event that lands too close to the end of its phase back so
   that [event_margin] clean counting steps fit strictly after the
   corrupted row (which can never itself start the clean suffix):
   otherwise a perturbation near a phase boundary could not be certified
   as recovered, whatever the algorithm. [random] keeps the pulled-back
   round inside its phase by rejecting phases shorter than
   [event_margin + 2]. *)
let clamp_to_phase ~event_margin phases round =
  let rec find start = function
    | [] -> round
    | p :: rest ->
      if round < start + p.duration then
        min round (start + p.duration - 2 - event_margin)
      else find (start + p.duration) rest
  in
  find 0 phases

let random ~(spec : 's Algo.Spec.t) ~adversaries ?(phases = 3)
    ?(phase_rounds = 500) ?(events = 2) ?(max_victims = 2) ?(event_margin = 0)
    ~seed () =
  if phases < 1 then invalid_arg "Schedule.random: phases < 1";
  if events < 0 then invalid_arg "Schedule.random: events < 0";
  if max_victims < 1 then invalid_arg "Schedule.random: max_victims < 1";
  if event_margin < 0 then invalid_arg "Schedule.random: event_margin < 0";
  if phase_rounds < event_margin + 2 then
    invalid_arg
      (Printf.sprintf
         "Schedule.random: phase_rounds %d is below event_margin + 2 = %d, \
          too short to certify a recovery"
         phase_rounds (event_margin + 2));
  if adversaries = [] then invalid_arg "Schedule.random: no adversaries";
  let n = spec.Algo.Spec.n and f = spec.Algo.Spec.f in
  let rng = Stdx.Rng.create seed in
  let phase_list =
    List.init phases (fun _ ->
        let adversary = Stdx.Rng.pick_list rng adversaries in
        let size = Stdx.Rng.int rng (min f n + 1) in
        let faulty = Stdx.Rng.sample_without_replacement rng size n in
        let duration = phase_rounds + Stdx.Rng.int rng phase_rounds in
        { adversary; faulty; duration })
  in
  let total = List.fold_left (fun acc p -> acc + p.duration) 0 phase_list in
  let event_list =
    List.init events (fun _ ->
        {
          round =
            clamp_to_phase ~event_margin phase_list (Stdx.Rng.int rng total);
          victims = 1 + Stdx.Rng.int rng max_victims;
        })
  in
  validate ~spec { phases = phase_list; events = event_list }

let describe t =
  let phase p =
    Printf.sprintf "%s f=[%s] x%d"
      (Adversary.name p.adversary)
      (String.concat ";" (List.map string_of_int p.faulty))
      p.duration
  in
  let body = String.concat " | " (List.map phase t.phases) in
  let head =
    Printf.sprintf "%d phases / %d rounds: %s" (List.length t.phases)
      (total_rounds t) body
  in
  match t.events with
  | [] -> head
  | evs ->
    Printf.sprintf "%s; events %s" head
      (String.concat ", "
         (List.map
            (fun e -> Printf.sprintf "t=%d(k=%d)" e.round e.victims)
            evs))

(* ------------------------------------------------------------------ *)
(* Size metric and shrinking steps (the hunt's shrink lattice)         *)
(* ------------------------------------------------------------------ *)

let size t =
  total_rounds t
  + List.length t.phases
  + List.fold_left (fun acc p -> acc + List.length p.faulty) 0 t.phases
  + List.fold_left (fun acc (e : event) -> acc + 1 + e.victims) 0 t.events

let phase_start t i =
  let rec go acc j = function
    | [] -> acc
    | p :: rest -> if j = i then acc else go (acc + p.duration) (j + 1) rest
  in
  go 0 0 t.phases

let drop_phase t i =
  match List.nth_opt t.phases i with
  | None -> None
  | Some _ when List.length t.phases < 2 -> None
  | Some victim ->
    let start = phase_start t i in
    let d = victim.duration in
    let phases = List.filteri (fun j _ -> j <> i) t.phases in
    (* Events inside the dropped phase go with it; later events shift
       back by its duration and keep their offset within their phase. *)
    let events =
      List.filter_map
        (fun e ->
          if e.round < start then Some e
          else if e.round < start + d then None
          else Some { e with round = e.round - d })
        t.events
    in
    Some { phases; events }

let halve_duration ?(floor = 1) ?(margin = 0) t i =
  if floor < 1 then invalid_arg "Schedule.halve_duration: floor < 1";
  if margin < 0 then invalid_arg "Schedule.halve_duration: margin < 0";
  match List.nth_opt t.phases i with
  | None -> None
  | Some p ->
    let d' = max floor (p.duration / 2) in
    if d' >= p.duration then None
    else begin
      let start = phase_start t i in
      let shift = p.duration - d' in
      (* The shrunk phase keeps only events that still leave [margin]
         certifiable rounds before its new end (the same clamp [random]
         applies at generation time); the rest are dropped rather than
         silently squeezed against the boundary. *)
      let cut = d' - 2 - margin in
      let phases =
        List.mapi
          (fun j q -> if j = i then { q with duration = d' } else q)
          t.phases
      in
      let events =
        List.filter_map
          (fun e ->
            if e.round < start then Some e
            else if e.round < start + p.duration then
              if e.round - start <= cut then Some e else None
            else Some { e with round = e.round - shift })
          t.events
      in
      Some { phases; events }
    end

let drop_event t j =
  match List.nth_opt t.events j with
  | None -> None
  | Some _ -> Some { t with events = List.filteri (fun k _ -> k <> j) t.events }

let halve_victims t j =
  match List.nth_opt t.events j with
  | None -> None
  | Some e when e.victims <= 1 -> None
  | Some e ->
    Some
      {
        t with
        events =
          List.mapi
            (fun k e' -> if k = j then { e' with victims = e.victims / 2 } else e')
            t.events;
      }

let drop_faulty t ~phase ~index =
  match List.nth_opt t.phases phase with
  | None -> None
  | Some p -> (
    match List.nth_opt p.faulty index with
    | None -> None
    | Some _ ->
      let faulty = List.filteri (fun k _ -> k <> index) p.faulty in
      Some
        {
          t with
          phases =
            List.mapi
              (fun j q -> if j = phase then { q with faulty } else q)
              t.phases;
        })

(* ------------------------------------------------------------------ *)
(* Structured mutations (the hunt's generation pressure)               *)
(* ------------------------------------------------------------------ *)

let clamped_events ~n t =
  let correct_at round =
    let rec go start = function
      | [] -> n
      | p :: rest ->
        if round < start + p.duration then n - List.length p.faulty
        else go (start + p.duration) rest
    in
    go 0 t.phases
  in
  List.fold_left
    (fun acc (e : event) ->
      if e.victims > correct_at e.round then acc + 1 else acc)
    0 t.events

let mutate ~(spec : 's Algo.Spec.t) ~adversaries ?(max_victims = 2)
    ?(event_margin = 0) ~rng t =
  if adversaries = [] then invalid_arg "Schedule.mutate: no adversaries";
  if max_victims < 1 then invalid_arg "Schedule.mutate: max_victims < 1";
  if event_margin < 0 then invalid_arg "Schedule.mutate: event_margin < 0";
  let n = spec.Algo.Spec.n and f = spec.Algo.Spec.f in
  let num_phases = List.length t.phases in
  let pick_phase () = Stdx.Rng.int rng num_phases in
  let with_phase i g =
    { t with phases = List.mapi (fun j p -> if j = i then g p else p) t.phases }
  in
  let clamp_to_phase = clamp_to_phase ~event_margin t.phases in
  let mutated =
    match Stdx.Rng.int rng 6 with
    | 0 ->
      (* saturate one phase's faulty set to full resilience *)
      let size = min f n in
      let faulty = Stdx.Rng.sample_without_replacement rng size n in
      with_phase (pick_phase ()) (fun p -> { p with faulty })
    | 1 ->
      (* swap one phase's adversary *)
      let adversary = Stdx.Rng.pick_list rng adversaries in
      with_phase (pick_phase ()) (fun p -> { p with adversary })
    | 2 ->
      (* align one event with a phase entry, stacking the transient
         corruption on the phase-boundary perturbation *)
      (match t.events with
      | [] -> t
      | events ->
        let j = Stdx.Rng.int rng (List.length events) in
        let i = pick_phase () in
        let round = clamp_to_phase (phase_start t i) in
        {
          t with
          events =
            List.mapi (fun k e -> if k = j then { e with round } else e) events;
        })
    | 3 ->
      (* double one event's victim count (capped at max_victims) *)
      (match t.events with
      | [] -> t
      | events ->
        let j = Stdx.Rng.int rng (List.length events) in
        {
          t with
          events =
            List.mapi
              (fun k e ->
                if k = j then
                  { e with victims = max e.victims (min (2 * e.victims) max_victims) }
                else e)
              events;
        })
    | 4 ->
      (* add a fresh event at a margin-respecting random round *)
      let total = total_rounds t in
      let round = clamp_to_phase (Stdx.Rng.int rng total) in
      let victims = 1 + Stdx.Rng.int rng max_victims in
      { t with events = t.events @ [ { round; victims } ] }
    | _ ->
      (* uniform pressure: every phase attacked by the same strategy *)
      let adversary = Stdx.Rng.pick_list rng adversaries in
      { t with phases = List.map (fun p -> { p with adversary }) t.phases }
  in
  validate ~spec mutated

(* ------------------------------------------------------------------ *)
(* JSON round-trip (corpus entries are self-describing)                *)
(* ------------------------------------------------------------------ *)

let ints_json l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let to_json t =
  let phase p =
    Printf.sprintf "{\"adversary\":\"%s\",\"faulty\":%s,\"duration\":%d}"
      (Stdx.Json.escape (Adversary.name p.adversary))
      (ints_json p.faulty) p.duration
  in
  let event (e : event) =
    Printf.sprintf "{\"round\":%d,\"victims\":%d}" e.round e.victims
  in
  Printf.sprintf "{\"phases\":[%s],\"events\":[%s]}"
    (String.concat "," (List.map phase t.phases))
    (String.concat "," (List.map event t.events))

let of_json_value ~adversaries j =
  if adversaries = [] then invalid_arg "Schedule.of_json_value: no adversaries";
  let registry = List.map (fun a -> (Adversary.name a, a)) adversaries in
  let resolve name =
    match List.assoc_opt name registry with
    | Some a -> a
    | None ->
      raise
        (Stdx.Json.Parse_error
           (Printf.sprintf "unknown adversary %S (known: %s)" name
              (String.concat ", " (List.map fst registry))))
  in
  let phase pj =
    {
      adversary =
        resolve (Stdx.Json.to_string "adversary" (Stdx.Json.field pj "adversary"));
      faulty = Stdx.Json.to_ints "faulty" (Stdx.Json.field pj "faulty");
      duration = Stdx.Json.to_int "duration" (Stdx.Json.field pj "duration");
    }
  in
  let event ej =
    {
      round = Stdx.Json.to_int "round" (Stdx.Json.field ej "round");
      victims = Stdx.Json.to_int "victims" (Stdx.Json.field ej "victims");
    }
  in
  {
    phases =
      List.map phase (Stdx.Json.to_list "phases" (Stdx.Json.field j "phases"));
    events =
      List.map event (Stdx.Json.to_list "events" (Stdx.Json.field j "events"));
  }

let of_json ~adversaries s =
  match Stdx.Json.parse s with
  | exception Stdx.Json.Parse_error msg -> Error msg
  | j -> (
    match of_json_value ~adversaries j with
    | t -> Ok t
    | exception Stdx.Json.Parse_error msg -> Error msg)
