(* The analysis daemon as [hem_tool serve --socket PATH --jobs 2] runs it
   ([Serve.Server.run] with the same defaults), with latency histogram
   recording on, so the [metrics] op reports the handler's
   [serve.request_ns] distribution.  The CLI has no such switch; the
   traced serve run uses this executable.

     daemon.exe --socket PATH *)

let () =
  match Sys.argv with
  | [| _; "--socket"; path |] ->
    Obs.Hist.set_enabled true;
    Serve.Server.run (Serve.Server.config ~unix_path:path ~jobs:2 ())
  | _ ->
    prerr_endline "usage: daemon.exe --socket PATH";
    exit 2
