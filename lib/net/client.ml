(* Networked client transport: Svc.Client.S over the Frame protocol,
   with request coalescing (stamp_batch frames its whole burst and pays
   one write/flush, then reads the pipelined responses back in order)
   and epoch-range lease caching (connect ~lease:k makes each cache miss
   fetch one Get_range and mint the next k stamps locally — one round
   trip amortized over k stamps).  Timestamps cross the wire as the
   implementation's Codec payloads; the Ping handshake checks that both
   ends use the same one.  Replies are decoded where they lie in the
   receive buffer, a Stamp reply straight into the returned stamp. *)

open Svc.Client

module Make (T : Timestamp.Intf.S) = struct
  type result = T.result

  let codec : T.result Codec.t = Codec.for_impl (module T)

  type t = {
    conn : Conn.t;
    lease : int;
    info : Frame.server_info;
    (* the cached lease: its next mint (the anchor's identity, start tick
       and value) and the unminted tick range *)
    mutable l_mint : result stamp option;
    mutable l_next : int;  (* next end tick to mint *)
    mutable l_end : int;  (* exclusive *)
  }

  let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

  (* The next reply, decoded where it lies in the receive buffer. *)
  let recv t decode =
    match Conn.recv t.conn decode with
    | Ok (Ok v) -> v
    | Ok (Error e) -> fail "undecodable response: %s" (Frame.error_to_string e)
    | Error `Eof -> fail "connection closed by server"
    | Error (`Frame e) -> fail "frame error: %s" (Frame.error_to_string e)

  let unexpected what = function
    | Frame.Err msg -> fail "server: %s" msg
    | _ -> fail "protocol error: expected %s" what

  (* A Stamp reply straight into the stamp: no payload string, no
     intermediate record, the timestamp read by the codec in place. *)
  let read_stamp =
    Frame.read_reply codec
      ~stamp:(fun ~pid ~call ~shard ~start_tick ~end_tick ts ->
          { st_pid = pid; st_call = call; st_start_tick = start_tick;
            st_end_tick = end_tick; st_ts = ts;
            st_resp_us = Obs.Clock.now_us (); st_shard = shard })
      ~range:(fun ~pid:_ ~call:_ ~shard:_ ~start_tick:_ ~base:_ ~count:_ _ ->
          fail "protocol error: expected Stamp")
      ~other:(unexpected "Stamp")

  (* A Range reply as its first mint (end tick [base]) and its count. *)
  let read_range =
    Frame.read_reply codec
      ~stamp:(fun ~pid:_ ~call:_ ~shard:_ ~start_tick:_ ~end_tick:_ _ ->
          fail "protocol error: expected Range")
      ~range:(fun ~pid ~call ~shard ~start_tick ~base ~count ts ->
          ( { st_pid = pid; st_call = call; st_start_tick = start_tick;
              st_end_tick = base; st_ts = ts; st_resp_us = 0.;
              st_shard = shard },
            count ))
      ~other:(unexpected "Range")

  let flush_conn t =
    try Conn.flush t.conn
    with Unix.Unix_error (e, _, _) ->
      fail "connection lost: %s" (Unix.error_message e)

  let send t req =
    Frame.write_req (Conn.send_buffer t.conn) req;
    flush_conn t

  let rpc t req =
    send t req;
    match recv t Frame.read_resp with
    | Frame.Err msg -> fail "server: %s" msg
    | r -> r

  let cached t = t.l_end - t.l_next

  (* Replaces the cache with a fresh grant of up to [k] ticks; the server
     may grant fewer than asked, never none. *)
  let refill t k =
    send t (Frame.Get_range (min k Frame.max_lease));
    let first, count = recv t read_range in
    if count < 1 then fail "protocol error: Range grants no tick";
    t.l_mint <- Some first;
    t.l_next <- first.st_end_tick;
    t.l_end <- first.st_end_tick + count

  (* One stamp off the cached lease, refilled first with [want] ticks if
     its grant is spent: every mint takes an end tick the server granted,
     and no grant is minted past its end. *)
  let mint t ~want =
    if cached t = 0 then refill t want;
    let e = t.l_next in
    t.l_next <- e + 1;
    match t.l_mint with
    | Some m -> { m with st_end_tick = e; st_resp_us = Obs.Clock.now_us () }
    | None -> assert false

  let remote_stamp t =
    send t Frame.Get_stamp;
    recv t read_stamp

  let stamp t = if t.lease > 1 then mint t ~want:t.lease else remote_stamp t

  let stamp_async t =
    let s = stamp t in
    fun () -> s

  let stamp_batch t k =
    if k <= 0 then []
    else if t.lease > 1 then
      (* mint the burst off the cache; each refill asks for the rest of
         the burst and a full lease to leave behind, so a burst that one
         grant covers costs one round trip *)
      List.init k (fun j -> mint t ~want:(k - j + t.lease))
    else begin
      (* per-stamp round trips, coalesced: frame the whole burst, flush
         once, then read the k responses back in order *)
      let sbuf = Conn.send_buffer t.conn in
      for _ = 1 to k do
        Frame.write_req sbuf Frame.Get_stamp
      done;
      flush_conn t;
      List.init k (fun _ -> recv t read_stamp)
    end

  let compare _ a b = T.compare_ts a.st_ts b.st_ts

  let compare_remote t a b =
    match
      rpc t
        (Frame.Compare
           { a = Codec.encode codec a.st_ts; b = Codec.encode codec b.st_ts })
    with
    | Frame.Cmp v -> v
    | _ -> fail "protocol error: expected Cmp"

  let server_info t = t.info

  let stats t =
    match rpc t Frame.Stats with
    | Frame.Stats_reply { sr_shards; sr_conns; _ } -> (sr_shards, sr_conns)
    | _ -> fail "protocol error: expected Stats_reply"

  let stop_server t =
    match rpc t Frame.Stop with
    | Frame.Stopping -> ()
    | _ -> fail "protocol error: expected Stopping"

  let close t = Conn.close t.conn

  let connect ?(lease = 1) addr =
    if lease < 1 || lease > Frame.max_lease then
      invalid_arg
        (Printf.sprintf "Net.Client.connect: lease must be in [1, %d]"
           Frame.max_lease);
    let fd =
      Unix.socket ~cloexec:true (Conn.domain_of addr) Unix.SOCK_STREAM 0
    in
    (match Unix.connect fd (Conn.sockaddr_of addr) with
     | () -> ()
     | exception Unix.Unix_error (e, _, _) ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       fail "cannot connect to %s: %s" (Conn.addr_to_string addr)
         (Unix.error_message e)
     | exception Failure msg ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       fail "cannot connect to %s: %s" (Conn.addr_to_string addr) msg);
    let t =
      { conn = Conn.create fd;
        lease;
        info =
          { Frame.si_impl = ""; si_kind = `One_shot; si_n = 0; si_shards = 0;
            si_codec = "" };
        l_mint = None;
        l_next = 0;
        l_end = 0 }
    in
    (* handshake: both ends must agree on the implementation and on the
       exact codec layout the stamp payloads use *)
    match rpc t Frame.Ping with
    | Frame.Pong info ->
      if info.Frame.si_impl <> T.name then begin
        close t;
        fail "server at %s serves %s, client wants %s"
          (Conn.addr_to_string addr) info.Frame.si_impl T.name
      end;
      if info.Frame.si_codec <> Codec.name codec then begin
        close t;
        fail "server at %s speaks codec %S, client wants %S"
          (Conn.addr_to_string addr) info.Frame.si_codec (Codec.name codec)
      end;
      { t with info }
    | _ ->
      close t;
      fail "protocol error: expected Pong"
    | exception e ->
      close t;
      raise e
end

(* The one wire load run: [ts_cli loadgen --addr], E18 and the tests
   drive a live server with it.  The server counts from its start, so
   the probe reads the loops' counters before and after the run, outside
   the clients' timed window, and the report gets this run's share. *)
let run (Timestamp.Registry.Impl (module T)) ?(lease = 1)
    ?(stop_server = false) addr (cfg : Svc.Loadgen.cfg) =
  let module C = Make (T) in
  let module D = Svc.Loadgen.Drive (C) in
  Svc.Loadgen.validate cfg;
  let probe = C.connect ~lease addr in
  let opened = ref [ probe ] in
  Fun.protect ~finally:(fun () -> List.iter C.close !opened) @@ fun () ->
  let loop_stats () = Array.of_list (fst (C.stats probe)) in
  let before = loop_stats () in
  (* in client order, on this domain: a connect error surfaces before
     any client domain starts *)
  let handles =
    Array.init cfg.clients (fun _ ->
        let h = C.connect ~lease addr in
        opened := h :: !opened;
        h)
  in
  let report =
    D.run
      { D.connect = (fun i -> handles.(i));
        num_shards = max 1 (C.server_info probe).si_shards;
        impl = T.name;
        mode_label =
          Printf.sprintf "net %s lease=%d clients=%d pipeline=%d%s"
            (Conn.addr_to_string addr) lease cfg.clients cfg.pipeline
            (Svc.Loadgen.arrival_string cfg);
        backend_label = "boxed";
        compare_ts = T.compare_ts;
        pp_ts = T.pp_ts;
        attach = None;
        teardown = (fun () -> Array.iter C.close handles);
        service_stats =
          Some
            (fun () ->
               Array.mapi
                 (fun i (s : Frame.shard_stat) ->
                    ( s.ss_served - before.(i).Frame.ss_served,
                      s.ss_batches - before.(i).ss_batches,
                      s.ss_max_batch ))
                 (loop_stats ())) }
      cfg
  in
  if stop_server then C.stop_server probe;
  report
