(* Networked client transport: Svc.Client.S over the Frame protocol,
   with request coalescing (stamp_batch frames its whole burst and pays
   one write/flush, then reads the pipelined responses back in order)
   and epoch-range lease caching (connect ~lease:k makes each cache miss
   fetch one Get_range and mint the next k stamps locally — one round
   trip amortized over k stamps).  Timestamps cross the wire as the
   implementation's Codec payloads; the Ping handshake checks that both
   ends use the same one. *)

open Svc.Client

let now_us () = Obs.Trace.Clock.now_s () *. 1e6

module Make (T : Timestamp.Intf.S) = struct
  type result = T.result

  let codec : T.result Codec.t = Codec.for_impl (module T)

  type t = {
    conn : Conn.t;
    lease : int;
    info : Frame.server_info;
    (* the cached lease: anchor identity + the unminted tick range *)
    mutable l_pid : int;
    mutable l_call : int;
    mutable l_shard : int;
    mutable l_start : int;
    mutable l_ts : T.result option;
    mutable l_next : int;  (* next end tick to mint *)
    mutable l_end : int;  (* exclusive *)
  }

  let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

  let ts_of_blob s : T.result =
    try Codec.decode_exn codec s
    with Codec.Malformed m -> fail "bad timestamp payload: %s" m

  let recv_resp t =
    match Conn.recv t.conn with
    | Error `Eof -> fail "connection closed by server"
    | Error (`Frame e) -> fail "frame error: %s" (Frame.error_to_string e)
    | Ok payload -> (
        match Frame.decode_resp payload with
        | Error e -> fail "undecodable response: %s" (Frame.error_to_string e)
        | Ok (_, Frame.Err msg) -> fail "server: %s" msg
        | Ok (_, r) -> r)

  let flush_conn t =
    try Conn.flush t.conn
    with Unix.Unix_error (e, _, _) ->
      fail "connection lost: %s" (Unix.error_message e)

  let rpc t req =
    Frame.write_req (Conn.send_buffer t.conn) req;
    flush_conn t;
    recv_resp t

  let of_wire (w : Frame.wire_stamp) =
    { st_pid = w.w_pid; st_call = w.w_call; st_start_tick = w.w_start_tick;
      st_end_tick = w.w_end_tick; st_ts = ts_of_blob w.w_ts;
      st_resp_us = now_us (); st_shard = w.w_shard }

  (* one stamp off the cached lease; caller checks the cache is warm *)
  let mint t =
    let e = t.l_next in
    t.l_next <- e + 1;
    let ts = match t.l_ts with Some ts -> ts | None -> assert false in
    { st_pid = t.l_pid; st_call = t.l_call; st_start_tick = t.l_start;
      st_end_tick = e; st_ts = ts; st_resp_us = now_us ();
      st_shard = t.l_shard }

  let cached t = t.l_end - t.l_next

  let refill t k =
    let k = min k Frame.max_lease in
    match rpc t (Frame.Get_range k) with
    | Frame.Range g ->
      t.l_pid <- g.g_pid;
      t.l_call <- g.g_call;
      t.l_shard <- g.g_shard;
      t.l_start <- g.g_start_tick;
      t.l_ts <- Some (ts_of_blob g.g_ts);
      t.l_next <- g.g_base;
      t.l_end <- g.g_base + g.g_count
    | _ -> fail "protocol error: expected Range"

  let remote_stamp t =
    match rpc t Frame.Get_stamp with
    | Frame.Stamp w -> of_wire w
    | _ -> fail "protocol error: expected Stamp"

  let stamp t =
    if cached t > 0 then mint t
    else if t.lease <= 1 then remote_stamp t
    else begin
      refill t t.lease;
      mint t
    end

  let stamp_async t =
    let s = stamp t in
    fun () -> s

  let stamp_batch t k =
    if k <= 0 then []
    else if t.lease > 1 then begin
      (* serve the burst from the cache, topping it up once if short —
         the refill covers the deficit and leaves a full lease behind *)
      if cached t < k then refill t (k - cached t + t.lease);
      List.init k (fun _ -> mint t)
    end
    else begin
      (* per-stamp round trips, coalesced: frame the whole burst, flush
         once, then read the k responses back in order *)
      let sbuf = Conn.send_buffer t.conn in
      for _ = 1 to k do
        Frame.write_req sbuf Frame.Get_stamp
      done;
      flush_conn t;
      List.init k (fun _ ->
          match recv_resp t with
          | Frame.Stamp w -> of_wire w
          | _ -> fail "protocol error: expected Stamp")
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
        l_pid = 0;
        l_call = 0;
        l_shard = 0;
        l_start = 0;
        l_ts = None;
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
