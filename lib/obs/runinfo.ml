(* First stdout line of a shell command, or None on any failure — the
   manifest must never make a run fail. *)
let command_line cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let line = try Some (input_line ic) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l when String.trim l <> "" -> Some (String.trim l)
    | _ -> None
  with _ -> None

let git_describe () =
  match command_line "git describe --always --dirty --tags" with
  | Some d -> d
  | None -> "unknown"

let run_schema = "persistsim-run/2"

let write_file ~tool path =
  let j =
    Json.Obj
      [ ("schema", Json.Str run_schema);
        ("tool", Json.Str tool);
        ( "argv",
          Json.List
            (List.map (fun a -> Json.Str a) (Array.to_list Sys.argv)) );
        ("created_unix", Json.Float (Unix.time ()));
        ("git", Json.Str (git_describe ()));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("os", Json.Str Sys.os_type);
        ("word_size", Json.Int Sys.word_size);
        ("cores", Json.Int (Domain.recommended_domain_count ())) ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string j);
      output_char oc '\n')
