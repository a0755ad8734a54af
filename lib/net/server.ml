(* Wire-facing timestamp server: a sharded event-loop reactor.

   A small fixed pool of I/O domains ([io_threads], default = shards)
   each multiplexes many non-blocking connections with [Unix.select],
   driving a per-connection state machine:

   - reads may deliver partial frames; bytes accumulate in the
     connection's receive buffer until {!Frame.frame_length} says a
     frame is complete;
   - every complete frame is answered while it is parsed, its reply
     framed into the connection's send buffer at once, so replies leave
     in request order without a queue;
   - the send buffer drains with non-blocking writes — a slow reader
     leaves bytes pending and the loop polls writability instead of
     blocking; past a high-water mark the loop also stops *reading*
     from that connection (backpressure instead of unbounded buffering).

   Each loop is one of the paper's sequential processes (Section 2): it
   runs every getTS it decodes to completion, [Get_stamp] and lease
   anchors alike, on its own {!Svc.Client.Direct} handle, connected in
   [start].  For a long-lived object loop i is pid i, so [n] must be at
   least [io_threads]; a one-shot object draws a fresh pid per getTS.
   No connection holds a pid, so none can leak one.  The cost: while a
   loop runs a burst of getTS, its other connections wait behind the
   burst (DESIGN.md §14).

   Loop 0 also accepts: the non-blocking listen socket sits in its
   [select] set, and each new fd goes to a loop (connection id mod
   io_threads) through a lock-free mailbox, followed by one byte on that
   loop's wake pipe, which is in every [select] set of the loop: a loop
   blocks with no timeout and never polls.  [select] cannot watch an fd
   at or above [FD_SETSIZE], so such an fd is closed at accept and
   counted as refused.

   Protocol: one frame format ({!Frame}).  Stamps are encoded with the
   implementation's {!Codec} straight into the send buffer, and
   [Compare] payloads are parsed with the same codec's strict decoder.
   An implementation without a codec cannot be served: applying [Make]
   to it raises.

   Anchors on demand.  A [Get_range k] lease is one anchor getTS plus k
   end ticks reserved with one fetch-and-add after that getTS executed
   ({!Svc.Client.Direct.reserve_ticks}, DESIGN.md §14–15).  Nothing runs
   while nobody asks. *)

(* [Unix.select] raises EINVAL when any fd in its sets is at or above
   FD_SETSIZE; on Unix a [file_descr] is the fd number. *)
let fd_setsize = 1024

let fd_number (fd : Unix.file_descr) : int = Obj.magic fd

(* Stop reading from a connection whose peer is not draining responses. *)
let out_hiwater = 1 lsl 16

module Make (T : Timestamp.Intf.S) = struct
  module D = Svc.Client.Direct (T)

  let codec : T.result Codec.t = Codec.for_impl (module T)

  (* Per-slot counter group; connections hash onto [conn_slots] slots
     (conn id mod [conn_slots]) so the gauge count stays fixed for
     telemetry — `ts_cli top` stays readable at hundreds of connections —
     while slot ids are reused as connections come and go.  [k_conns]
     counts *live* connections on the slot (decremented on close). *)
  let conn_slots = 4

  type slot = {
    k_conns : int Atomic.t;
    k_requests : int Atomic.t;
    k_stamps : int Atomic.t;
    k_leases : int Atomic.t;
    k_bytes_in : int Atomic.t;
    k_bytes_out : int Atomic.t;
  }

  let make_slot () =
    { k_conns = Atomic.make 0;
      k_requests = Atomic.make 0;
      k_stamps = Atomic.make 0;
      k_leases = Atomic.make 0;
      k_bytes_in = Atomic.make 0;
      k_bytes_out = Atomic.make 0 }

  let bump a n = ignore (Atomic.fetch_and_add a n)

  type loop = {
    lp_index : int;
    lp_client : D.t;  (* the loop's process: every getTS it runs *)
    lp_incoming : (int * Unix.file_descr) list Atomic.t;
    lp_wake_r : Unix.file_descr;
    lp_wake_w : Unix.file_descr;
    (* Written by the loop's domain only; [Stats] and the telemetry
       sampler read them live (plain int reads cannot tear). *)
    mutable lp_served : int;  (* getTS programs run *)
    mutable lp_batches : int;  (* parse passes that ran at least one *)
    mutable lp_max_batch : int;  (* most programs in one pass *)
  }

  type cstate = {
    cv_conn : Conn.t;
    cv_slot : slot;
    cv_loop : loop;  (* the owning loop *)
    mutable cv_read_eof : bool;  (* peer done sending: answer, then close *)
    mutable cv_dead : bool;  (* socket gone: drop immediately *)
    mutable cv_last_in : int;
    mutable cv_last_out : int;
  }

  type t = {
    ctx : D.ctx;
    info : Frame.server_info;
    listen_fd : Unix.file_descr;
    addr : Conn.addr;
    slots : slot array;
    loops : loop array;
    mutable loop_doms : unit Domain.t list;
    next_conn : int Atomic.t;  (* also the cumulative connection count *)
    refused : int Atomic.t;  (* closed at accept: fd >= FD_SETSIZE *)
    stop_requested : bool Atomic.t;  (* a client sent Stop *)
    stopping : bool Atomic.t;  (* shutdown underway *)
    stop_park : Svc.Park.t;  (* [wait] parks here until either flag *)
    stopped : bool Atomic.t;
  }

  let stats_reply t =
    let sr_shards =
      Array.to_list
        (Array.map
           (fun l ->
              { Frame.ss_served = l.lp_served; ss_batches = l.lp_batches;
                ss_max_batch = l.lp_max_batch })
           t.loops)
    in
    let sr_conns =
      Array.to_list
        (Array.mapi
           (fun i sl ->
              { Frame.cn_slot = i;
                cn_conns = Atomic.get sl.k_conns;
                cn_requests = Atomic.get sl.k_requests;
                cn_stamps = Atomic.get sl.k_stamps;
                cn_leases = Atomic.get sl.k_leases;
                cn_bytes_in = Atomic.get sl.k_bytes_in;
                cn_bytes_out = Atomic.get sl.k_bytes_out })
           t.slots)
    in
    Frame.Stats_reply
      { sr_shards; sr_conns; sr_refused = Atomic.get t.refused }

  (* -------------------------- request handling --------------------- *)

  let run_getts loop =
    let s = D.get_ts loop.lp_client in
    loop.lp_served <- loop.lp_served + 1;
    s

  let reply cv r = Frame.write_resp (Conn.send_buffer cv.cv_conn) r

  let err cv msg = reply cv (Frame.Err msg)

  (* Answers one decoded request into the send buffer.  A getTS runs
     here, on the loop; [Invalid_argument] from {!D.get_ts} (a one-shot
     object out of pids) becomes the peer's [Err]. *)
  let handle t cv req =
    let out = Conn.send_buffer cv.cv_conn in
    let loop = cv.cv_loop in
    match req with
    | Frame.Ping -> reply cv (Frame.Pong t.info)
    | Frame.Get_stamp -> (
        match run_getts loop with
        | s ->
          Frame.write_stamp_v2 out codec ~pid:s.st_pid ~call:s.st_call
            ~shard:loop.lp_index ~start_tick:s.st_start_tick
            ~end_tick:s.st_end_tick s.st_ts;
          bump cv.cv_slot.k_stamps 1
        | exception Invalid_argument msg -> err cv msg)
    | Frame.Get_range k ->
      if k < 1 || k > Frame.max_lease then
        err cv
          (Printf.sprintf "lease size %d out of range [1, %d]" k
             Frame.max_lease)
      else (
        match run_getts loop with
        | s ->
          (* the k end ticks are reserved strictly after the anchor
             executed *)
          let base = D.reserve_ticks t.ctx k in
          Frame.write_range_v2 out codec ~pid:s.st_pid ~call:s.st_call
            ~shard:loop.lp_index ~start_tick:s.st_start_tick ~base
            ~count:k s.st_ts;
          bump cv.cv_slot.k_leases 1;
          bump cv.cv_slot.k_stamps k
        | exception Invalid_argument msg -> err cv msg)
    | Frame.Compare { a; b } -> (
        match (Codec.decode_exn codec a, Codec.decode_exn codec b) with
        | ta, tb -> reply cv (Frame.Cmp (T.compare_ts ta tb))
        | exception Codec.Malformed _ ->
          err cv "undecodable timestamp payload")
    | Frame.Stats -> reply cv (stats_reply t)
    | Frame.Stop ->
      reply cv Frame.Stopping;
      Atomic.set t.stop_requested true;
      Svc.Park.wake t.stop_park

  (* --------------------------- event loop -------------------------- *)

  let sync_bytes cv =
    let bin = Conn.bytes_in cv.cv_conn and bout = Conn.bytes_out cv.cv_conn in
    bump cv.cv_slot.k_bytes_in (bin - cv.cv_last_in);
    cv.cv_last_in <- bin;
    bump cv.cv_slot.k_bytes_out (bout - cv.cv_last_out);
    cv.cv_last_out <- bout

  let close_conn cv =
    sync_bytes cv;
    Conn.close cv.cv_conn;
    bump cv.cv_slot.k_conns (-1)

  let wake_byte = Bytes.make 1 '!'

  (* Makes the loop's [select] return; a full pipe already holds a
     wakeup. *)
  let wake loop =
    try ignore (Unix.write loop.lp_wake_w wake_byte 0 1)
    with Unix.Unix_error _ -> ()

  let drain_wake_pipe fd =
    let scratch = Bytes.create 64 in
    let rec go () =
      match Unix.read fd scratch 0 64 with
      | 64 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK
                                   | Unix.EINTR), _, _) -> ()
    in
    go ()

  (* Shutdown: push a connection's answered bytes out, best-effort and
     bounded, so a dead peer cannot hang [stop]. *)
  let flush_for_close cv =
    let deadline = Obs.Clock.now_ns () + 1_000_000_000 in
    let rec go () =
      if Conn.pending_out cv.cv_conn > 0 && Obs.Clock.now_ns () < deadline
      then
        match Conn.try_flush cv.cv_conn with
        | `Flushed | `Closed -> ()
        | `Partial ->
          (match Unix.select [] [ Conn.fd cv.cv_conn ] [] 0.05 with
           | _ -> ()
           | exception Unix.Unix_error _ -> ());
          go ()
    in
    try go () with _ -> ()

  let io_loop t loop () =
    let accepts = loop.lp_index = 0 in
    let conns : (Unix.file_descr, cstate) Hashtbl.t = Hashtbl.create 32 in
    let adopt (cid, fd) =
      let conn = Conn.create fd in
      Conn.set_nonblock conn;
      let cv =
        { cv_conn = conn;
          cv_slot = t.slots.(cid mod Array.length t.slots);
          cv_loop = loop;
          cv_read_eof = false;
          cv_dead = false;
          cv_last_in = 0;
          cv_last_out = 0 }
      in
      bump cv.cv_slot.k_conns 1;
      Hashtbl.replace conns fd cv
    in
    let drain_incoming () =
      match Atomic.exchange loop.lp_incoming [] with
      | [] -> ()
      | l -> List.iter adopt (List.rev l)
    in
    let dispatch fd =
      let cid = Atomic.fetch_and_add t.next_conn 1 in
      let target = t.loops.(cid mod Array.length t.loops) in
      if target == loop then adopt (cid, fd)
      else begin
        let rec push () =
          let old = Atomic.get target.lp_incoming in
          if
            not
              (Atomic.compare_and_set target.lp_incoming old
                 ((cid, fd) :: old))
          then push ()
        in
        push ();
        wake target
      end
    in
    (* Loop 0 only: take every connection the backlog holds. *)
    let rec accept_all () =
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ ->
        if fd_number fd >= fd_setsize then begin
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Atomic.incr t.refused
        end
        else dispatch fd;
        accept_all ()
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        accept_all ()
      | exception Unix.Unix_error _ -> ()  (* EAGAIN: backlog empty *)
    in
    (* Answer every complete frame already buffered: one parse pass.
       Each frame is decoded where it lies and answered after the
       decoder returns. *)
    let parse cv =
      let served0 = loop.lp_served in
      let rec go () =
        match Conn.buffered_frame cv.cv_conn Frame.read_req with
        | None -> ()
        | Some (Ok (Ok req)) ->
          bump cv.cv_slot.k_requests 1;
          handle t cv req;
          if not cv.cv_read_eof then go ()
        | Some (Ok (Error e)) ->
          bump cv.cv_slot.k_requests 1;
          (* framing is broken: answer, then close *)
          err cv (Frame.error_to_string e);
          cv.cv_read_eof <- true
        | Some (Error (`Frame e)) ->
          err cv (Frame.error_to_string e);
          cv.cv_read_eof <- true
      in
      go ();
      let ran = loop.lp_served - served0 in
      if ran > 0 then begin
        loop.lp_batches <- loop.lp_batches + 1;
        if ran > loop.lp_max_batch then loop.lp_max_batch <- ran
      end
    in
    let on_readable cv =
      match Conn.try_refill cv.cv_conn with
      | `Eof -> cv.cv_read_eof <- true
      | `Would_block -> ()
      | `Data -> parse cv
    in
    let finished = ref false in
    while not !finished do
      drain_incoming ();
      if Atomic.get t.stopping then begin
        (* Graceful drain: every parsed request is already answered in
           its send buffer; push the bytes out, then close. *)
        Hashtbl.iter
          (fun _ cv ->
             if not cv.cv_dead then flush_for_close cv;
             close_conn cv)
          conns;
        Hashtbl.reset conns;
        finished := true
      end
      else begin
        let dead = ref [] in
        Hashtbl.iter
          (fun fd cv ->
             (* opportunistic flush: most replies leave in one write *)
             if (not cv.cv_dead) && Conn.pending_out cv.cv_conn > 0 then begin
               match Conn.try_flush cv.cv_conn with
               | `Closed -> cv.cv_dead <- true
               | `Flushed | `Partial -> ()
             end;
             sync_bytes cv;
             if cv.cv_dead
                || (cv.cv_read_eof && Conn.pending_out cv.cv_conn = 0)
             then dead := (fd, cv) :: !dead)
          conns;
        List.iter
          (fun (fd, cv) ->
             Hashtbl.remove conns fd;
             close_conn cv)
          !dead;
        let rds = ref [ loop.lp_wake_r ] and wrs = ref [] in
        if accepts then rds := t.listen_fd :: !rds;
        Hashtbl.iter
          (fun fd cv ->
             if (not cv.cv_read_eof)
                && Conn.pending_out cv.cv_conn < out_hiwater
             then rds := fd :: !rds;
             if Conn.pending_out cv.cv_conn > 0 then wrs := fd :: !wrs)
          conns;
        (* Block until I/O or a byte on the wake pipe: a hand-over
           pushed after [drain_incoming] has written its byte by now or
           will, so the mailbox is never left unread. *)
        let rds', wrs', _ =
          try Unix.select !rds !wrs [] (-1.0) with
          | Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
          | Unix.Unix_error (Unix.EBADF, _, _) ->
            (* a peer died between iterations; sweep on the next pass *)
            Hashtbl.iter
              (fun _ cv ->
                 match Unix.fstat (Conn.fd cv.cv_conn) with
                 | exception _ -> cv.cv_dead <- true
                 | _ -> ())
              conns;
            ([], [], [])
        in
        if List.memq loop.lp_wake_r rds' then drain_wake_pipe loop.lp_wake_r;
        if accepts && List.memq t.listen_fd rds' then accept_all ();
        List.iter
          (fun fd ->
             match Hashtbl.find_opt conns fd with
             | Some cv -> (
                 match Conn.try_flush cv.cv_conn with
                 | `Closed -> cv.cv_dead <- true
                 | `Flushed | `Partial -> ())
             | None -> ())
          wrs';
        List.iter
          (fun fd ->
             match Hashtbl.find_opt conns fd with
             | Some cv -> on_readable cv
             | None -> ())
          rds'
      end
    done

  (* ---------------------------- lifecycle -------------------------- *)

  let stop t =
    if Atomic.compare_and_set t.stopped false true then begin
      Atomic.set t.stopping true;
      Svc.Park.wake t.stop_park;
      (* wake every loop so it sees the flag, in select or not, then
         join: loops flush their answered bytes and close their
         connections *)
      Array.iter wake t.loops;
      List.iter Domain.join t.loop_doms;
      t.loop_doms <- [];
      (* loop 0 has stopped selecting on the listen socket *)
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      (match t.addr with
       | Conn.Unix_path p -> (try Unix.unlink p with Unix.Unix_error _ -> ())
       | Conn.Tcp _ -> ());
      (* late arrivals: handed over by loop 0 after their loop finished *)
      Array.iter
        (fun l ->
           List.iter
             (fun (_, fd) -> try Unix.close fd with Unix.Unix_error _ -> ())
             (Atomic.exchange l.lp_incoming []))
        t.loops;
      Array.iter
        (fun l ->
           (try Unix.close l.lp_wake_r with Unix.Unix_error _ -> ());
           try Unix.close l.lp_wake_w with Unix.Unix_error _ -> ())
        t.loops
    end

  let start ?(shards = 1) ?io_threads ~addr ~n () =
    let io_threads = match io_threads with Some k -> k | None -> shards in
    if io_threads <= 0 then
      invalid_arg "Server.start: io_threads must be positive";
    (match T.kind with
     | `Long_lived when n < io_threads ->
       invalid_arg
         (Printf.sprintf
            "Server.start: %s is long-lived and each I/O loop runs as one \
             of its processes: n=%d is below io_threads=%d"
            T.name n io_threads)
     | `Long_lived | `One_shot -> ());
    let ctx = D.create_ctx ~n () in
    let unlink_path () =
      match addr with
      | Conn.Unix_path p -> (try Unix.unlink p with Unix.Unix_error _ -> ())
      | Conn.Tcp _ -> ()
    in
    unlink_path ();
    (* Every fd a loop selects on must stay below FD_SETSIZE. *)
    let owned = ref [] in
    let own what fds =
      owned := fds @ !owned;
      List.iter
        (fun fd ->
           if fd_number fd >= fd_setsize then
             failwith
               (Printf.sprintf
                  "Server.start: %s got fd %d, at or above FD_SETSIZE (%d), \
                   which select cannot watch; close fds or start the \
                   server earlier"
                  what (fd_number fd) fd_setsize))
        fds
    in
    let setup () =
      let listen_fd =
        Unix.socket ~cloexec:true (Conn.domain_of addr) Unix.SOCK_STREAM 0
      in
      own "the listen socket" [ listen_fd ];
      (match addr with
       | Conn.Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
       | Conn.Unix_path _ -> ());
      Unix.bind listen_fd (Conn.sockaddr_of addr);
      Unix.listen listen_fd 256;
      Unix.set_nonblock listen_fd;
      let mk_loop i =
        let r, w = Unix.pipe ~cloexec:true () in
        own "a wake pipe" [ r; w ];
        Unix.set_nonblock r;
        Unix.set_nonblock w;
        { lp_index = i;
          lp_client = D.connect ctx;
          lp_incoming = Atomic.make [];
          lp_wake_r = r;
          lp_wake_w = w;
          lp_served = 0;
          lp_batches = 0;
          lp_max_batch = 0 }
      in
      (listen_fd, Array.init io_threads mk_loop)
    in
    let listen_fd, loops =
      try setup ()
      with e ->
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          !owned;
        unlink_path ();
        raise e
    in
    let t =
      { ctx;
        info =
          { Frame.si_impl = T.name;
            si_kind = T.kind;
            si_n = n;
            si_shards = io_threads;
            si_codec = Codec.name codec };
        listen_fd;
        addr;
        slots = Array.init conn_slots (fun _ -> make_slot ());
        loops;
        loop_doms = [];
        next_conn = Atomic.make 0;
        refused = Atomic.make 0;
        stop_requested = Atomic.make false;
        stopping = Atomic.make false;
        stop_park = Svc.Park.create ();
        stopped = Atomic.make false }
    in
    (* A failed spawn (past the runtime's domain limit) stops the loops
       already spawned, closes the fds and unlinks the path, then
       re-raises. *)
    (try
       Array.iter
         (fun l -> t.loop_doms <- Domain.spawn (io_loop t l) :: t.loop_doms)
         t.loops
     with e ->
       stop t;
       raise e);
    t

  let bound_addr t =
    match Unix.getsockname t.listen_fd with
    | Unix.ADDR_UNIX p -> Conn.Unix_path p
    | Unix.ADDR_INET (a, p) ->
      Conn.Tcp { host = Unix.string_of_inet_addr a; port = p }

  let info t = t.info

  let stop_requested t = Atomic.get t.stop_requested

  let domains t = Array.length t.loops

  let live_conns t =
    Array.fold_left (fun acc sl -> acc + Atomic.get sl.k_conns) 0 t.slots

  let stop_wanted t = Atomic.get t.stop_requested || Atomic.get t.stopping

  let wait t = Svc.Park.wait t.stop_park stop_wanted t

  let refused t = Atomic.get t.refused

  (* --------------------------- telemetry --------------------------- *)

  let requests_total t =
    Array.fold_left (fun acc sl -> acc + Atomic.get sl.k_requests) 0 t.slots

  let conns_total t = Atomic.get t.next_conn

  let net_sources t =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i sl ->
               let g name a =
                 (Printf.sprintf "c%d.%s" i name,
                  fun () -> float_of_int (Atomic.get a))
               in
               [ g "conns" sl.k_conns;
                 g "requests" sl.k_requests;
                 g "stamps" sl.k_stamps;
                 g "leases" sl.k_leases;
                 g "bytes_in" sl.k_bytes_in;
                 g "bytes_out" sl.k_bytes_out ])
            t.slots))

  let attach_telemetry t ts =
    Obs.Timeseries.add_meta ts "addr"
      (Obs.Json.String (Conn.addr_to_string t.addr));
    Obs.Timeseries.add_meta ts "conn_slots"
      (Obs.Json.Int (Array.length t.slots));
    Obs.Timeseries.add_meta ts "io_threads"
      (Obs.Json.Int (Array.length t.loops));
    Array.iter
      (fun l ->
         let g name f =
           Obs.Timeseries.add_source ts
             ~name:(Printf.sprintf "s%d.%s" l.lp_index name)
             (fun () -> float_of_int (f l))
         in
         g "served" (fun l -> l.lp_served);
         g "batches" (fun l -> l.lp_batches))
      t.loops;
    List.iter
      (fun (name, f) -> Obs.Timeseries.add_source ts ~name f)
      (net_sources t);
    Obs.Timeseries.add_source ts ~name:"net.refused" (fun () ->
        float_of_int (refused t))
end
