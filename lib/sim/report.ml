type meta =
  { label : string; n : int; f : int; c : int; time_bound : int option }

type corruption =
  { cell : int; round : int; phase : int; requested : int; victims : int list }

type cell = { cell : int; label : string; wall_s : float }

type t = {
  metas : meta list;
  bound : int option;
  phases : (int * Engine.phase_report) list;
  corruptions : corruption list;
  spans : (string * (int * float)) list;
  trials : int;
  hits : int;
  shrink_steps : int;
  shrink_kept : int;
  worst_score : float;
  cells : cell list;
  recovered : int;
  exceeded : int;
  worst_recovery : int;
}

(* The fold's state: [r] with its lists newest first, the cell events
   belong to, the phase awaiting its verdict, and the cell labels. *)
type state = {
  r : t;
  at : int;
  open_ : Engine.phase_report option;
  labels : (int * string) list;
}

let empty =
  { r = { metas = []; bound = None; phases = []; corruptions = []; spans = [];
          trials = 0; hits = 0; shrink_steps = 0; shrink_kept = 0;
          worst_score = neg_infinity; cells = []; recovered = 0;
          exceeded = 0; worst_recovery = 0 };
    at = 0; open_ = None; labels = [] }

let close ?(end_round = -1) ?(verdict = Online.Not_stabilized) ?recovery s =
  match s.open_ with
  | None -> s
  | Some p ->
    let p = { p with end_round; verdict; recovery } in
    { s with open_ = None; r = { s.r with phases = (s.at, p) :: s.r.phases } }

let step s (ev : Trace.event) =
  let r = s.r in
  match ev with
  | Meta { label; n; f; c; time_bound } ->
    let bound = if time_bound = None then r.bound else time_bound in
    let metas = { label; n; f; c; time_bound } :: r.metas in
    { s with r = { r with metas; bound } }
  | Cell_start { cell; label } ->
    { (close s) with at = cell; labels = (cell, label) :: s.labels }
  | Phase_start { round; phase; adversary; faulty } ->
    let p : Engine.phase_report =
      { phase; adversary; faulty; start_round = round; end_round = -1;
        perturbations = 1; last_perturbation = round;
        verdict = Online.Not_stabilized; recovery = None }
    in
    { (close ~end_round:round s) with open_ = Some p }
  | Corruption { round; phase; requested; victims } ->
    let hit (p : Engine.phase_report) =
      if p.phase <> phase then p
      else
        { p with perturbations = p.perturbations + 1;
                 last_perturbation = round }
    in
    let e : corruption = { cell = s.at; round; phase; requested; victims } in
    { s with open_ = Option.map hit s.open_;
             r = { r with corruptions = e :: r.corruptions } }
  | Detector_reset _ -> s
  | Verdict { round; stabilized; recovery; phase = _ } ->
    let verdict : Online.verdict =
      match stabilized with Some t -> Stabilized t | None -> Not_stabilized
    in
    close ~end_round:round ~verdict ?recovery s
  | Hunt_trial { score; hit; _ } ->
    let worst_score = if score > r.worst_score then score else r.worst_score in
    let hits = if hit then r.hits + 1 else r.hits in
    { s with r = { r with trials = r.trials + 1; hits; worst_score } }
  | Hunt_shrink { steps; kept; _ } ->
    let shrink_steps = r.shrink_steps + steps in
    { s with r = { r with shrink_steps; shrink_kept = r.shrink_kept + kept } }
  | Span { name; count; wall_s } ->
    let c0, w0 = Option.value (List.assoc_opt name r.spans) ~default:(0, 0.) in
    let spans =
      (name, (c0 + count, w0 +. wall_s)) :: List.remove_assoc name r.spans
    in
    { s with r = { r with spans } }
  | Cell_end { cell; wall_s } ->
    let s = close s and cell = { cell; label = ""; wall_s } in
    { s with r = { s.r with cells = cell :: s.r.cells } }

let analyse events =
  let { r; labels; _ } = close (List.fold_left step empty events) in
  let phases = List.rev r.phases in
  let recoveries = List.filter_map (fun (_, p) -> p.Engine.recovery) phases in
  let label (c : cell) =
    { c with label = Option.value (List.assoc_opt c.cell labels) ~default:"" }
  in
  let slowest_first a b = Float.compare b.wall_s a.wall_s in
  { r with
    metas = List.rev r.metas;
    phases;
    corruptions = List.rev r.corruptions;
    spans = List.sort compare r.spans;
    cells = List.map label (List.sort slowest_first r.cells);
    recovered = List.length recoveries;
    exceeded =
      Option.fold r.bound ~none:0 ~some:(fun b ->
          List.length (List.filter (fun x -> x > b) recoveries));
    worst_recovery = List.fold_left max 0 recoveries }

let to_json r =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"kind\":\"report\"";
  (match List.rev r.metas with
  | m :: _ ->
    Printf.bprintf b ",\"label\":\"%s\",\"n\":%d,\"f\":%d,\"c\":%d"
      (Stdx.Json.escape m.label) m.n m.f m.c
  | [] -> ());
  Printf.bprintf b ",\"bound\":%s"
    (Option.fold ~none:"null" ~some:string_of_int r.bound);
  let phases = List.length r.phases in
  Printf.bprintf b
    ",\"phases\":%d,\"recovered\":%d,\"failed\":%d,\"exceeded\":%d,\
     \"worst_recovery\":%d,\"hunt\":{\"trials\":%d,\"hits\":%d,\
     \"shrink_steps\":%d,\"shrink_kept\":%d,\"worst_score\":%s}"
    phases r.recovered (phases - r.recovered) r.exceeded r.worst_recovery
    r.trials r.hits r.shrink_steps r.shrink_kept
    (if r.worst_score > neg_infinity then Printf.sprintf "%.17g" r.worst_score
     else "null");
  let list f l = String.concat "," (List.map f l) in
  Printf.bprintf b ",\"spans\":[%s],\"cells\":[%s]}"
    (list
       (fun (name, (count, wall)) ->
         Printf.sprintf "{\"name\":\"%s\",\"count\":%d,\"wall_s\":%.17g}"
           (Stdx.Json.escape name) count wall)
       r.spans)
    (list
       (fun (c : cell) ->
         Printf.sprintf "{\"cell\":%d,\"wall_s\":%.17g}" c.cell c.wall_s)
       r.cells);
  Buffer.contents b
