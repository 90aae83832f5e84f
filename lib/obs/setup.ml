let activate ?metrics_out ?trace_out ?manifest_out ?(progress = false) () =
  (match metrics_out with
  | Some path ->
    Metrics.set_enabled Metrics.default true;
    at_exit (fun () -> Metrics.dump_file Metrics.default path)
  | None -> ());
  (match trace_out with
  | Some path ->
    Tracer.enable ();
    at_exit (fun () -> Tracer.write_file path)
  | None -> ());
  (match manifest_out with
  | Some path ->
    at_exit (fun () ->
        Runinfo.write_file ~tool:(Filename.basename Sys.executable_name) path)
  | None -> ());
  if progress then Perfscope.set_progress true

let from_env () =
  activate
    ?metrics_out:(Sys.getenv_opt "METRICS_OUT")
    ?trace_out:(Sys.getenv_opt "TRACE_OUT")
    ?manifest_out:(Sys.getenv_opt "MANIFEST_OUT")
    ~progress:(Sys.getenv_opt "PROGRESS" = Some "1")
    ()
