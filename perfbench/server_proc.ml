(* The wire server in a process of its own.

   [fork] must run before the benchmark spawns any domain (OCaml 5
   refuses to fork afterwards), so the child is forked once per run and
   then starts and stops a fresh Net.Server for every round on command.
   Its CPU time and peak RSS are then the server's alone, and its GC
   pauses never stall the load generator.  Commands and replies are
   marshalled over a pipe pair between two forks of this binary. *)

type cmd =
  | Start
  | Cpu  (** process CPU seconds so far *)
  | Stop
  | Quit

type reply =
  | Started of { domains : int; service_domains : int }
  | Failed of string
  | Cpu_s of float
  | Stopped
  | Bye of { rss_mb : float }

type t = { pid : int; oc : out_channel; ic : in_channel }

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set (VmHWM) of the calling process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let shards = 1

let io_threads = 1

let serve (module T : Timestamp.Intf.S) ~addr ~n ~fail_start ic oc =
  let module Srv = Net.Server.Make (T) in
  let srv = ref None in
  let stop () =
    Option.iter Srv.stop !srv;
    srv := None
  in
  let send r =
    Marshal.to_channel oc (r : reply) [];
    flush oc
  in
  let rec loop () =
    match (Marshal.from_channel ic : cmd) with
    | exception End_of_file -> stop ()
    | Start ->
      (match
         if fail_start then failwith "server start refused (--fault server)";
         Srv.start ~shards ~io_threads ~addr ~n ()
       with
       | s ->
         srv := Some s;
         send (Started { domains = Srv.domains s; service_domains = shards })
       | exception e -> send (Failed (Printexc.to_string e)));
      loop ()
    | Cpu ->
      send (Cpu_s (cpu_s ()));
      loop ()
    | Stop ->
      stop ();
      send Stopped;
      loop ()
    | Quit ->
      stop ();
      send (Bye { rss_mb = peak_rss_mb () })
  in
  loop ()

let fork impl ~addr ~n ~fail_start =
  flush stdout;
  flush stderr;
  let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close cmd_w;
    Unix.close rep_r;
    let status =
      try
        serve impl ~addr ~n ~fail_start
          (Unix.in_channel_of_descr cmd_r)
          (Unix.out_channel_of_descr rep_w);
        0
      with e ->
        Printf.eprintf "perfbench server: %s\n%!" (Printexc.to_string e);
        1
    in
    (* _exit: skip the parent's at_exit handlers and buffers *)
    Unix._exit status
  | pid ->
    Unix.close cmd_r;
    Unix.close rep_w;
    { pid;
      oc = Unix.out_channel_of_descr cmd_w;
      ic = Unix.in_channel_of_descr rep_r }

let call t cmd =
  Marshal.to_channel t.oc (cmd : cmd) [];
  flush t.oc;
  (Marshal.from_channel t.ic : reply)

(* Stops the child and waits for it; returns its peak RSS. *)
let quit t =
  let rss =
    match call t Quit with
    | Bye { rss_mb } -> rss_mb
    | _ -> nan
    | exception _ -> nan
  in
  (try close_out t.oc with Sys_error _ -> ());
  (try close_in t.ic with Sys_error _ -> ());
  ignore (Unix.waitpid [] t.pid);
  rss
