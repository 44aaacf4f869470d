(* jsonlint: strict syntax check for the machine-readable bench logs.

     dune exec bin/jsonlint.exe -- BENCH_sweep.json BENCH_parallel.json
     dune exec bin/jsonlint.exe -- --jsonl trace.jsonl

   Each file must be one JSON value under Stdx.Json.parse's grammar;
   the first error is reported with its byte offset. With --jsonl every
   non-empty line must be one complete JSON value (the trace format of
   `countctl --trace`), and the error also names the line. Exits 1 if
   any file is malformed or unreadable, 2 without a file argument. *)

let check ~jsonl content =
  if not jsonl then Result.map ignore (Stdx.Json.parse_result content)
  else
    Stdx.Json.lines content
    |> Seq.find_map (fun (lineno, line) ->
           match Stdx.Json.parse_result line with
           | Ok _ -> None
           | Error msg -> Some (Printf.sprintf "line %d: %s" lineno msg))
    |> Option.fold ~none:(Ok ()) ~some:Result.error

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let jsonl, paths = List.partition (fun a -> a = "--jsonl") args in
  let jsonl = jsonl <> [] in
  if paths = [] then begin
    prerr_endline "usage: jsonlint [--jsonl] FILE...";
    exit 2
  end;
  let bad = ref false in
  List.iter
    (fun path ->
      match check ~jsonl (In_channel.with_open_bin path In_channel.input_all) with
      | Ok () -> Printf.printf "%s: ok\n" path
      | Error msg ->
        Printf.printf "%s: MALFORMED at %s\n" path msg;
        bad := true
      | exception Sys_error e ->
        Printf.printf "%s: unreadable: %s\n" path e;
        bad := true)
    paths;
  if !bad then exit 1
