(* Network layer: frame codec round-trips and rejection, the TCP/Unix
   transport end to end against a live server, epoch-range lease
   soundness under concurrent clients, and graceful shutdown with
   connections still open. *)

open Svc.Client

let sock_path () =
  let p = Filename.temp_file "tsnet" ".sock" in
  (* Server.start unlinks an existing path before bind *)
  p

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* ------------------------- frame codec ---------------------------- *)

let gen_blob = QCheck2.Gen.(string_size (int_range 0 64))

let gen_req =
  QCheck2.Gen.(
    oneof
      [ return Net.Frame.Ping;
        return Net.Frame.Get_stamp;
        map (fun k -> Net.Frame.Get_range k) (int_range 1 Net.Frame.max_lease);
        map2 (fun a b -> Net.Frame.Compare { a; b }) gen_blob gen_blob;
        return Net.Frame.Stats;
        return Net.Frame.Stop ])

let gen_resp =
  let open QCheck2.Gen in
  let nat = int_range 0 1_000_000 in
  let gen_info =
    map2
      (fun impl ((n, shards), codec) ->
         Net.Frame.Pong
           { si_impl = impl;
             si_kind = (if n land 1 = 0 then `One_shot else `Long_lived);
             si_n = n; si_shards = shards; si_codec = codec })
      gen_blob (pair (pair nat nat) gen_blob)
  in
  let gen_stamp =
    map2
      (fun (pid, call) ((shard, (s, e)), ts) ->
         Net.Frame.Stamp
           { w_pid = pid; w_call = call; w_shard = shard; w_start_tick = s;
             w_end_tick = e; w_ts = ts })
      (pair nat nat)
      (pair (pair nat (pair nat nat)) gen_blob)
  in
  let gen_range =
    map2
      (fun ((pid, call), (shard, start)) ((base, count), ts) ->
         Net.Frame.Range
           { g_pid = pid; g_call = call; g_shard = shard;
             g_start_tick = start; g_base = base; g_count = count; g_ts = ts })
      (pair (pair nat nat) (pair nat nat))
      (pair (pair nat nat) gen_blob)
  in
  let gen_stats =
    map2
      (fun served reqs ->
         Net.Frame.Stats_reply
           { sr_shards =
               [ { Net.Frame.ss_served = served; ss_batches = served / 2;
                   ss_max_batch = 7 } ];
             sr_conns =
               [ { Net.Frame.cn_slot = 0; cn_conns = 2; cn_requests = reqs;
                   cn_stamps = reqs; cn_leases = 1; cn_bytes_in = 10 * reqs;
                   cn_bytes_out = 30 * reqs } ];
             sr_refused = served mod 3 })
      nat nat
  in
  oneof
    [ gen_info; gen_stamp; gen_range;
      map (fun v -> Net.Frame.Cmp v) bool;
      gen_stats;
      return Net.Frame.Stopping;
      map (fun m -> Net.Frame.Err m) gen_blob ]

(* One decoder, two entry points: the string decoders wrap the slice
   decoders, and a slice sits at a nonzero offset of a larger buffer
   with garbage on both sides, as a frame does in a receive buffer.  The
   padding is mostly continuation and version bytes, which would extend
   a truncated varint or a short payload if a decoder read past its
   limit. *)
let gen_pads =
  let open QCheck2.Gen in
  let pad lo =
    string_size
      ~gen:(oneof [ char; oneofl [ '\128'; '\255'; '\002'; '\001' ] ])
      (int_range lo 12)
  in
  pair (pad 1) (pad 0)

let in_garbage (before, after) payload =
  Net.Codec.cursor
    (Bytes.of_string (before ^ payload ^ after))
    ~off:(String.length before) ~len:(String.length payload)

(* The string decoder's result, once the slice decoder has agreed. *)
let decode_both ~pads read decode payload =
  let whole = decode payload in
  if Result.map (fun v -> (2, v)) (read (in_garbage pads payload)) <> whole
  then
    failwith (Printf.sprintf "slice decoder disagrees on %S" payload);
  whole

let req_both ?(pads = ("\255\128", "\001\002")) p =
  decode_both ~pads Net.Frame.read_req Net.Frame.decode_req p

let resp_both ?(pads = ("\255\128", "\001\002")) p =
  decode_both ~pads Net.Frame.read_resp Net.Frame.decode_resp p

let req_roundtrip =
  Util.qtest ~count:200 "frame: req round-trip (v2)"
    QCheck2.Gen.(pair gen_req gen_pads)
    (fun (r, pads) -> req_both ~pads (Net.Frame.encode_req r) = Ok (2, r))

let resp_roundtrip =
  Util.qtest ~count:200 "frame: resp round-trip (v2)"
    QCheck2.Gen.(pair gen_resp gen_pads)
    (fun (r, pads) -> resp_both ~pads (Net.Frame.encode_resp r) = Ok (2, r))

let frame_rejects () =
  let is_err = function Result.Error _ -> true | Result.Ok _ -> false in
  (* every strict prefix of a valid payload is rejected *)
  let payload = Net.Frame.encode_req (Net.Frame.Get_range 1024) in
  for len = 0 to String.length payload - 1 do
    Util.check_bool
      (Printf.sprintf "truncated at %d rejected" len)
      true
      (is_err (req_both (String.sub payload 0 len)))
  done;
  (* wrong version byte *)
  let bad_version = "\007" ^ String.sub payload 1 (String.length payload - 1) in
  Util.check_bool "bad version rejected" true
    (req_both bad_version = Result.Error (Net.Frame.Bad_version 7));
  (* unknown opcode — on both decoders *)
  let bad_op = "\002\099" in
  Util.check_bool "bad opcode rejected (req)" true
    (req_both bad_op = Result.Error (Net.Frame.Bad_opcode 99));
  Util.check_bool "bad opcode rejected (resp)" true
    (resp_both bad_op = Result.Error (Net.Frame.Bad_opcode 99));
  (* a response opcode is not a request *)
  Util.check_bool "resp opcode rejected by req decoder" true
    (is_err (req_both (Net.Frame.encode_resp Net.Frame.Stopping)));
  (* trailing garbage after a well-formed body *)
  Util.check_bool "trailing bytes rejected" true
    (is_err (req_both (payload ^ "x")));
  (* length-prefix screening: oversized and nonsense lengths *)
  let prefix n =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    b
  in
  (match
     Net.Frame.frame_length (prefix (Net.Frame.max_payload + 1)) ~off:0
       ~avail:4
   with
   | `Error (Net.Frame.Oversized _) -> ()
   | _ -> Alcotest.fail "oversized length accepted");
  (match Net.Frame.frame_length (prefix 1) ~off:0 ~avail:4 with
   | `Error (Net.Frame.Malformed _) -> ()
   | _ -> Alcotest.fail "absurd length accepted");
  (match Net.Frame.frame_length (prefix 100) ~off:0 ~avail:3 with
   | `Need_more -> ()
   | _ -> Alcotest.fail "short prefix not Need_more")

let addr_parsing () =
  let check s expect =
    Util.check_bool
      (Printf.sprintf "parse %S" s)
      true
      (Net.Conn.parse_addr s = expect)
  in
  check "unix:/tmp/x.sock" (Some (Net.Conn.Unix_path "/tmp/x.sock"));
  check "/tmp/x.sock" (Some (Net.Conn.Unix_path "/tmp/x.sock"));
  check "tcp:127.0.0.1:9090"
    (Some (Net.Conn.Tcp { host = "127.0.0.1"; port = 9090 }));
  check "localhost:80" (Some (Net.Conn.Tcp { host = "localhost"; port = 80 }));
  (* port 0: the server asks the kernel for a free port *)
  check "tcp:127.0.0.1:0" (Some (Net.Conn.Tcp { host = "127.0.0.1"; port = 0 }));
  check "tcp:nohost" None;
  check "host:99999" None;
  check "" None

(* ----------------------- timestamp codecs -------------------------- *)

let codec_roundtrip (type r) label
    (module T : Timestamp.Intf.S with type result = r) gen =
  let c = Net.Codec.for_impl (module T) in
  Util.qtest ~count:200
    (Printf.sprintf "codec: %s (%s) round-trip" (Net.Codec.name c) label)
    gen
    (fun v ->
       let n = c.Net.Codec.c_size v in
       let b = Bytes.create n in
       c.Net.Codec.c_put b 0 v = n
       && T.equal_ts (Net.Codec.decode_exn c (Bytes.to_string b)) v)

let gen_any_int =
  QCheck2.Gen.(
    oneof
      [ int_range (-1000) 1000; int_range 0 max_int;
        map Int.neg (int_range 0 max_int) ])

let codec_roundtrips =
  [ codec_roundtrip "lamport" (module Timestamp.Lamport) gen_any_int;
    codec_roundtrip "sqrt-oneshot"
      (module Timestamp.Sqrt.One_shot)
      QCheck2.Gen.(pair gen_any_int gen_any_int);
    codec_roundtrip "vector"
      (module Timestamp.Vector_ts)
      QCheck2.Gen.(array_size (int_range 0 8) gen_any_int);
    codec_roundtrip "efr"
      (module Timestamp.Efr)
      QCheck2.Gen.(
        oneof
          [ map (fun v -> Timestamp.Efr.Even v) gen_any_int;
            map2 (fun m c -> Timestamp.Efr.Odd (m, c)) gen_any_int
              gen_any_int ]) ]

let lost_increment () =
  match Fuzz.Mutant.find "mutant-lost-increment" with
  | Some impl -> impl
  | None -> Alcotest.fail "mutant registry lost its seed mutant"

let codec_rejects () =
  let c = Net.Codec.for_impl (module Timestamp.Vector_ts) in
  let malformed s =
    match Net.Codec.decode_exn c s with
    | _ -> false
    | exception Net.Codec.Malformed _ -> true
  in
  let payload = Net.Codec.encode c [| 1; 200; -3; 1 lsl 40 |] in
  (* every strict prefix is a truncation, never a shorter valid value *)
  for len = 0 to String.length payload - 1 do
    Util.check_bool
      (Printf.sprintf "truncated codec payload at %d rejected" len)
      true
      (malformed (String.sub payload 0 len))
  done;
  Util.check_bool "trailing bytes rejected" true
    (malformed (payload ^ "\000"));
  (* a varint longer than 63 bits is an overflow, not more data *)
  Util.check_bool "varint overflow rejected" true
    (malformed (String.make 10 '\xff'));
  (* an absurd element count is refused before allocating for it *)
  let huge =
    let b = Bytes.create 9 in
    let stop = Net.Codec.put_uv b 0 (Net.Codec.max_vector + 1) in
    Bytes.sub_string b 0 stop
  in
  Util.check_bool "oversized vector count rejected" true (malformed huge);
  (* an implementation without a wire layout gets no codec at all *)
  let (Timestamp.Registry.Impl (module M)) = lost_increment () in
  match Net.Codec.for_impl (module M) with
  | _ -> Alcotest.fail "codec built for an unregistered implementation"
  | exception Invalid_argument msg ->
    Util.check_bool "refusal names the implementation" true
      (contains msg "mutant-lost-increment")

(* Every registered implementation has a validating wire codec, and the
   name-keyed lookup picked the right one: timestamps the implementation
   really produces round-trip through it. *)
let registry_codecs_safe () =
  List.iter
    (fun (Timestamp.Registry.Impl (module T)) ->
       let c = Net.Codec.for_impl (module T) in
       let module D = Svc.Client.Direct (T) in
       let h = D.connect (D.create_ctx ~n:3 ()) in
       for _ = 1 to 3 do
         let ts = (D.stamp h).st_ts in
         Util.check_bool
           (Printf.sprintf "%s stamp round-trips" T.name)
           true
           (T.equal_ts (Net.Codec.decode_exn c (Net.Codec.encode c ts)) ts)
       done;
       D.close h)
    Timestamp.Registry.all

(* The server's hot-path stamp writer must not allocate: byte stores and
   int arithmetic only (E19's microbench pins the same property under
   load; this pins it hermetically). *)
let stamp_writer_zero_alloc () =
  let codec = Net.Codec.for_impl (module Timestamp.Lamport) in
  let b = Net.Buf.create ~cap:4096 () in
  let encode () =
    Net.Buf.clear b;
    Net.Frame.write_stamp_v2 b codec ~pid:3 ~call:123_456 ~shard:1
      ~start_tick:99_999_999 ~end_tick:100_000_007 424_242
  in
  encode ();  (* settle buffer growth before measuring *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    encode ()
  done;
  let delta = Gc.minor_words () -. w0 in
  Util.check_bool
    (Printf.sprintf "10k stamps allocated %.0f minor words" delta)
    true (delta < 256.)

(* The receive side's in-place decoders allocate only what they return:
   a Get_stamp request its [Ok], a Lamport Stamp reply the stamp the
   client returns (and its [Ok]).  No payload string, no wire record, no
   timestamp substring, no cursor: one is reset over each frame. *)
let in_place_decoders_allocate_only_their_result () =
  let lamport_codec = Net.Codec.for_impl (module Timestamp.Lamport) in
  let words_per f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. w0) /. 10_000.
  in
  let check what f =
    let words = words_per f in
    let result = Obj.reachable_words (Obj.repr (f ())) in
    Util.check_bool
      (Printf.sprintf "%s: %.2f minor words per decode, result is %d" what
         words result)
      true
      (words <= float_of_int result)
  in
  let padded p = Bytes.of_string ("\255\128" ^ p ^ "\001") in
  let req = padded (Net.Frame.encode_req Net.Frame.Get_stamp) in
  let c = Net.Codec.cursor req ~off:2 ~len:2 in
  let get_stamp () =
    Net.Codec.reset c req ~off:2 ~len:2;
    Net.Frame.read_req c
  in
  Util.check_bool "Get_stamp decodes in place" true
    (get_stamp () = Ok Net.Frame.Get_stamp);
  check "Get_stamp" get_stamp;
  let b = Net.Buf.create () in
  Net.Frame.write_stamp_v2 b lamport_codec ~pid:3 ~call:123_456 ~shard:1
    ~start_tick:99_999_999 ~end_tick:100_000_007 (-424_242);
  let frame = Net.Buf.contents b in
  let reply = padded (String.sub frame 4 (String.length frame - 4)) in
  let len = String.length frame - 4 in
  (* the response time is computed, so boxed, as the client's clock
     reading is *)
  let read =
    Net.Frame.read_reply lamport_codec
      ~stamp:(fun ~pid ~call ~shard ~start_tick ~end_tick ts ->
          { st_pid = pid; st_call = call; st_start_tick = start_tick;
            st_end_tick = end_tick; st_ts = ts;
            st_resp_us = float_of_int end_tick; st_shard = shard })
      ~range:(fun ~pid:_ ~call:_ ~shard:_ ~start_tick:_ ~base:_ ~count:_ _ ->
          Alcotest.fail "a Stamp reply read as a Range")
      ~other:(fun _ -> Alcotest.fail "a Stamp reply read as another reply")
  in
  let stamp () =
    Net.Codec.reset c reply ~off:2 ~len;
    read c
  in
  Util.check_bool "Stamp reply decodes in place" true
    (stamp ()
     = Ok
         { st_pid = 3; st_call = 123_456; st_start_tick = 99_999_999;
           st_end_tick = 100_000_007; st_ts = -424_242;
           st_resp_us = 100_000_007.; st_shard = 1 });
  check "Lamport Stamp reply" stamp

(* A send buffer under backpressure: frames are appended while the
   socket takes arbitrary prefixes off the front.  The tiny capacity
   forces compaction and growth in the middle of frames; whatever the
   interleaving, the bytes that left plus the bytes still pending must
   parse back into exactly the frames written. *)
type buf_op =
  | Append_req of Net.Frame.req
  | Append_resp of Net.Frame.resp
  | Append_stamp of int * int * int
  | Append_range of int * int * int
  | Consume of int

let lamport_codec = Net.Codec.for_impl (module Timestamp.Lamport)

let gen_buf_ops =
  let open QCheck2.Gen in
  let nat = int_range 0 1_000_000 in
  let triple = triple nat nat gen_any_int in
  list_size (int_range 1 40)
    (frequency
       [ (2, map (fun r -> Append_req r) gen_req);
         (2, map (fun r -> Append_resp r) gen_resp);
         (2, map (fun (a, b, ts) -> Append_stamp (a, b, ts)) triple);
         (2, map (fun (a, b, ts) -> Append_range (a, b, ts)) triple);
         (3, map (fun k -> Consume k) (int_range 0 48)) ])

let buf_state_machine =
  Util.qtest ~count:300 "frame: appends survive compaction and growth"
    gen_buf_ops (fun ops ->
        let b = Net.Buf.create ~cap:16 () in
        let sent = Buffer.create 256 in
        let expect =
          List.concat_map
            (function
              | Append_req r ->
                Net.Frame.write_req b r;
                [ `Req r ]
              | Append_resp r ->
                Net.Frame.write_resp b r;
                [ `Resp r ]
              | Append_stamp (pid, tick, ts) ->
                Net.Frame.write_stamp_v2 b lamport_codec ~pid ~call:1
                  ~shard:0 ~start_tick:tick ~end_tick:(tick + 1) ts;
                [ `Resp
                    (Net.Frame.Stamp
                       { w_pid = pid; w_call = 1; w_shard = 0;
                         w_start_tick = tick; w_end_tick = tick + 1;
                         w_ts = Net.Codec.encode lamport_codec ts }) ]
              | Append_range (pid, base, ts) ->
                Net.Frame.write_range_v2 b lamport_codec ~pid ~call:2
                  ~shard:0 ~start_tick:base ~base ~count:3 ts;
                [ `Resp
                    (Net.Frame.Range
                       { g_pid = pid; g_call = 2; g_shard = 0;
                         g_start_tick = base; g_base = base; g_count = 3;
                         g_ts = Net.Codec.encode lamport_codec ts }) ]
              | Consume k ->
                let k = min k (Net.Buf.length b) in
                Buffer.add_subbytes sent (Net.Buf.bytes b) (Net.Buf.offset b)
                  k;
                Net.Buf.consume b k;
                [])
            ops
        in
        Buffer.add_string sent (Net.Buf.contents b);
        let wire = Buffer.to_bytes sent in
        let rec parse off = function
          | [] -> off = Bytes.length wire
          | want :: rest -> (
              match
                Net.Frame.frame_length wire ~off
                  ~avail:(Bytes.length wire - off)
              with
              | `Length len when off + 4 + len <= Bytes.length wire ->
                let p = Bytes.sub_string wire (off + 4) len in
                let ok =
                  match want with
                  | `Req r -> Net.Frame.decode_req p = Ok (2, r)
                  | `Resp r -> Net.Frame.decode_resp p = Ok (2, r)
                in
                ok && parse (off + 4 + len) rest
              | _ -> false)
        in
        parse 0 expect)

(* Decoders are total: random bytes, structured junk with extreme
   varints, and one-byte mutations of valid payloads all yield [Ok] or
   [Error] from the frame decoders, and [Malformed] at worst from the
   timestamp codecs — never any other exception. *)
let gen_hostile_payload =
  let open QCheck2.Gen in
  let byte =
    oneof [ char; oneofl [ '\000'; '\002'; '\063'; '\127'; '\128'; '\255' ] ]
  in
  let varint =
    map
      (fun v ->
         let b = Bytes.create 9 in
         Bytes.sub_string b 0 (Net.Codec.put_uv b 0 v))
      (oneof [ int_range 0 300; int_range (max_int - 16) max_int; int ])
  in
  let token = oneof [ map (String.make 1) byte; varint ] in
  let structured =
    map2
      (fun op toks ->
         "\002" ^ String.make 1 (Char.chr op) ^ String.concat "" toks)
      (oneofl [ 1; 2; 3; 4; 5; 6; 65; 66; 67; 68; 69; 70; 71 ])
      (list_size (int_range 0 8) token)
  in
  let valid =
    oneof
      [ map Net.Frame.encode_req gen_req; map Net.Frame.encode_resp gen_resp ]
  in
  let mutated =
    map3
      (fun p i c ->
         let b = Bytes.of_string p in
         Bytes.set b (i mod Bytes.length b) c;
         Bytes.to_string b)
      valid nat byte
  in
  frequency
    [ (1, string_size ~gen:byte (int_range 0 32)); (3, structured);
      (2, mutated) ]

let decoders_never_raise =
  (* per codec: the whole-string decode and the in-place one agree, and
     the typed reply decoder (the client's) never raises *)
  let codec_decoders =
    let dec (type r) (module T : Timestamp.Intf.S with type result = r) pads
        s =
      let c = Net.Codec.for_impl (module T) in
      let whole =
        match Net.Codec.decode_exn c s with
        | v -> Some v
        | exception Net.Codec.Malformed _ -> None
      in
      let in_place =
        match Net.Codec.get_value c (in_garbage pads s) ~len:(String.length s)
        with
        | v -> Some v
        | exception Net.Codec.Malformed _ -> None
      in
      let agree =
        match (whole, in_place) with
        | Some a, Some b -> T.equal_ts a b
        | None, None -> true
        | _ -> false
      in
      let typed =
        Net.Frame.read_reply c
          ~stamp:(fun ~pid:_ ~call:_ ~shard:_ ~start_tick:_ ~end_tick:_ _ -> ())
          ~range:(fun ~pid:_ ~call:_ ~shard:_ ~start_tick:_ ~base:_ ~count:_
                   _ -> ())
          ~other:ignore (in_garbage pads s)
      in
      (* the typed decoder reads the timestamp too, so it is the
         stricter one *)
      agree
      && (match typed with
          | Ok () -> Result.is_ok (Net.Frame.decode_resp s)
          | Error _ -> true)
    in
    [ dec (module Timestamp.Lamport);
      dec (module Timestamp.Sqrt.One_shot);
      dec (module Timestamp.Vector_ts);
      dec (module Timestamp.Efr) ]
  in
  Util.qtest ~count:3000 "frame: decoders never raise on hostile bytes"
    QCheck2.Gen.(pair gen_hostile_payload gen_pads)
    (fun (s, pads) ->
       (match req_both ~pads s with Ok _ | Error _ -> true)
       && (match resp_both ~pads s with Ok _ | Error _ -> true)
       && List.for_all (fun dec -> dec pads s) codec_decoders)

(* ---------------------- live server round trips -------------------- *)

(* [call ()]'s stamps, each checked to respond between two [Obs.Clock]
   reads taken around the call: every transport stamps [st_resp_us] on
   that clock. *)
let resp_within label call =
  let before = Obs.Clock.now_us () in
  let stamps = call () in
  let after = Obs.Clock.now_us () in
  Util.check_bool (label ^ ": st_resp_us within the call") true
    (List.for_all
       (fun (s : _ Svc.Client.stamp) ->
          before <= s.st_resp_us && s.st_resp_us <= after)
       stamps);
  stamps

let wire_end_to_end () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let module C = Net.Client.Make (Timestamp.Lamport) in
  let path = sock_path () in
  let addr = Net.Conn.Unix_path path in
  let srv = Srv.start ~addr ~n:4 () in
  let c = C.connect addr in
  let info = C.server_info c in
  Util.check_bool "handshake impl" true
    (info.Net.Frame.si_impl = "lamport-longlived");
  Util.check_int "handshake n" 4 info.Net.Frame.si_n;
  Util.check_int "handshake shards" 1 info.Net.Frame.si_shards;
  let s1 = C.stamp c in
  let s2 = C.stamp c in
  Util.check_bool "per-session calls sequence" true (s1.st_call < s2.st_call);
  Util.check_bool "end ticks advance" true (s1.st_end_tick < s2.st_end_tick);
  Util.check_bool "timestamp order holds" true (C.compare c s1 s2);
  Util.check_bool "server-side compare agrees" (C.compare c s1 s2)
    (C.compare_remote c s1 s2);
  Util.check_bool "server-side compare agrees (reversed)" (C.compare c s2 s1)
    (C.compare_remote c s2 s1);
  let batch = resp_within "wire burst" (fun () -> C.stamp_batch c 5) in
  Util.check_int "batch completes" 5 (List.length batch);
  let calls = List.map (fun s -> s.st_call) batch in
  Util.check_bool "batch in issue order" true
    (calls = List.sort Int.compare calls);
  let shard_stats, conn_stats = C.stats c in
  Util.check_int "one shard reported" 1 (List.length shard_stats);
  let reqs =
    List.fold_left (fun a (k : Net.Frame.conn_stat) -> a + k.cn_requests) 0
      conn_stats
  in
  Util.check_bool "connection counters counted us" true (reqs >= 8);
  let stamps =
    List.fold_left (fun a (k : Net.Frame.conn_stat) -> a + k.cn_stamps) 0
      conn_stats
  in
  Util.check_int "stamps counted" 7 stamps;
  C.close c;
  Srv.stop srv;
  Util.check_bool "socket path unlinked" false (Sys.file_exists path)

(* Each I/O loop counts its own traffic.  Four connections made in
   order get ids 0-3, which land on loops 0, 1, 0, 1; the Stats reply
   then holds one entry per loop, each with that loop's live
   connections, requests (every handshake Ping and the Stats itself
   included), stamps (a lease's ticks included) and leases, and the
   shutdown summary's request count is their sum. *)
let wire_stats_per_loop () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let module C = Net.Client.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~io_threads:2 ~addr ~n:4 () in
  Fun.protect ~finally:(fun () -> Srv.stop srv) @@ fun () ->
  let c0 = C.connect addr in
  let c1 = C.connect addr in
  let c2 = C.connect ~lease:4 addr in
  let c3 = C.connect addr in
  let stamp_on loop c k =
    for _ = 1 to k do
      Util.check_int "served by the loop its id maps to" loop
        (C.stamp c).st_shard
    done
  in
  stamp_on 0 c0 3;
  stamp_on 1 c1 5;
  stamp_on 0 c2 2;  (* one Get_range 4 *)
  stamp_on 1 c3 1;
  let _, conns = C.stats c3 in
  (* loop 0: c0 Ping + 3 stamps, c2 Ping + 1 lease of 4 ticks;
     loop 1: c1 Ping + 5 stamps, c3 Ping + 1 stamp + Stats *)
  Alcotest.(check (list (list int)))
    "one entry per loop: slot, conns, requests, stamps, leases"
    [ [ 0; 2; 6; 7; 1 ]; [ 1; 2; 9; 6; 0 ] ]
    (List.map
       (fun (k : Net.Frame.conn_stat) ->
          [ k.cn_slot; k.cn_conns; k.cn_requests; k.cn_stamps; k.cn_leases ])
       conns);
  List.iter C.close [ c0; c1; c2; c3 ];
  Srv.stop srv;
  Util.check_int "requests_total sums the loops' entries"
    (List.fold_left (fun a (k : Net.Frame.conn_stat) -> a + k.cn_requests) 0
       conns)
    (Srv.requests_total srv);
  Util.check_int "conns_total counts every accept" 4 (Srv.conns_total srv);
  Util.check_int "no connection left live" 0 (Srv.live_conns srv)

(* A loop is one of the object's n processes and a connection holds no
   pid, so connections come and go for the server's whole life: with
   n = 2 and one loop, 50 connections one after another (every fifth on
   a lease) and then 3 open at once are all served, and every stamp
   passes the timed checker.  (A pid per stamping connection, never
   returned, refused the third connection.) *)
let wire_connection_churn_keeps_pids () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let module C = Net.Client.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~io_threads:1 ~addr ~n:2 () in
  let serial =
    List.concat
      (List.init 50 (fun i ->
           let c =
             if i mod 5 = 4 then C.connect ~lease:4 addr else C.connect addr
           in
           let got = List.init 3 (fun _ -> C.stamp c) in
           C.close c;
           got))
  in
  let open_at_once = List.init 3 (fun _ -> C.connect addr) in
  let concurrent =
    List.concat (List.init 2 (fun _ -> List.map C.stamp open_at_once))
  in
  List.iter C.close open_at_once;
  Srv.stop srv;
  let stamps = serial @ concurrent in
  Util.check_int "every stamp served" 156 (List.length stamps);
  Util.check_bool "every stamp ran as the loop's pid 0" true
    (List.for_all (fun s -> s.st_pid = 0) stamps);
  let timed =
    List.map
      (fun s ->
         { Timestamp.Checker.td_pid = s.st_pid; td_call = s.st_call;
           td_start = s.st_start_tick; td_end = s.st_end_tick;
           td_ts = s.st_ts })
      stamps
  in
  match
    Timestamp.Checker.check_timed ~order:Timestamp.Lamport.order
      ~compare_ts:Timestamp.Lamport.compare_ts ~pp:Timestamp.Lamport.pp_ts
      timed
  with
  | Result.Ok pairs -> Util.check_bool "checker verified pairs" true (pairs > 0)
  | Result.Error v ->
    Alcotest.failf "churned stamps violate happens-before: %a"
      Timestamp.Checker.pp_violation v

(* A long-lived object's loops are its processes: fewer processes than
   loops is refused before any fd exists, so no socket file appears. *)
let wire_start_refuses_n_below_loops () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let path = sock_path () in
  Sys.remove path;
  (match Srv.start ~io_threads:3 ~addr:(Net.Conn.Unix_path path) ~n:2 () with
   | srv ->
     Srv.stop srv;
     Alcotest.fail "n=2 accepted for 3 loops"
   | exception Invalid_argument msg ->
     Util.check_bool "the error names n" true (contains msg "n=2");
     Util.check_bool "the error names io_threads" true
       (contains msg "io_threads=3"));
  Util.check_bool "no socket file" false (Sys.file_exists path)

(* --------------------- leases under concurrency -------------------- *)

let lease_concurrent_clients () =
  let module Srv = Net.Server.Make (Timestamp.Efr) in
  let module C = Net.Client.Make (Timestamp.Efr) in
  let path = sock_path () in
  let addr = Net.Conn.Unix_path path in
  let srv = Srv.start ~addr ~n:4 () in
  let clients = 3 in
  let rounds = 10 in
  let doms =
    List.init clients (fun _ ->
        Domain.spawn (fun () ->
            let c = C.connect ~lease:8 addr in
            let acc = ref [] in
            for _ = 1 to rounds do
              acc := C.stamp c :: !acc;
              acc := List.rev_append (C.stamp_batch c 3) !acc
            done;
            C.close c;
            (* issue order = reverse of accumulation *)
            List.rev !acc))
  in
  let per_client = List.map Domain.join doms in
  (* each client's stamps mint strictly increasing end ticks *)
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  List.iteri
    (fun i stamps ->
       Util.check_bool
         (Printf.sprintf "client %d end ticks strictly increase" i)
         true
         (strictly_increasing (List.map (fun s -> s.st_end_tick) stamps)))
    per_client;
  let stamps = List.concat per_client in
  Util.check_int "all stamps arrived" (clients * rounds * 4)
    (List.length stamps);
  (* leases are disjoint: no end tick is ever handed out twice *)
  let ends =
    List.sort Int.compare (List.map (fun s -> s.st_end_tick) stamps)
  in
  let rec no_dup = function
    | a :: (b :: _ as rest) -> a <> b && no_dup rest
    | _ -> true
  in
  Util.check_bool "lease tick ranges disjoint across clients" true
    (no_dup ends);
  (* Every lease above was answered: a lease on a fresh connection
     submits a new anchor getTS, whose start tick is read after every
     reservation above.  Its stamp must order strictly over the whole
     first phase. *)
  let max_end = List.fold_left (fun m s -> max m s.st_end_tick) 0 stamps in
  let fresh =
    let c = C.connect ~lease:2 addr in
    let s = C.stamp c in
    C.close c;
    s
  in
  Util.check_bool "a fresh lease anchors after every reservation" true
    (fresh.st_start_tick > max_end);
  let stamps = fresh :: stamps in
  (* and the real-time checker accepts the whole run *)
  let timed =
    List.map
      (fun s ->
         { Timestamp.Checker.td_pid = s.st_pid; td_call = s.st_call;
           td_start = s.st_start_tick; td_end = s.st_end_tick;
           td_ts = s.st_ts })
      stamps
  in
  (match
     Timestamp.Checker.check_timed ~order:Timestamp.Efr.order
       ~compare_ts:Timestamp.Efr.compare_ts ~pp:Timestamp.Efr.pp_ts timed
   with
   | Result.Ok pairs -> Util.check_bool "checker verified pairs" true (pairs > 0)
   | Result.Error v ->
     Alcotest.failf "leased stamps violate happens-before: %a"
       Timestamp.Checker.pp_violation v);
  Srv.stop srv

(* [ts_cli loadgen --addr]'s run, [Net.Client.run], against a live
   Lamport server at [addr]: [clients] clients of [requests] stamps
   each, every stamp in the driver's one global check, which must pass
   with at least one ordered pair. *)
let drive_lamport addr ~lease ~clients ~requests =
  let r =
    Net.Client.run Timestamp.Registry.lamport ~lease addr
      { Svc.Loadgen.default with clients; requests_per_client = requests }
  in
  let what = Printf.sprintf "%s lease %d" (Net.Conn.addr_to_string addr) lease in
  Util.check_int (what ^ ": every stamp served") (clients * requests)
    r.Svc.Loadgen.lg_total;
  Alcotest.(check (option string)) (what ^ ": no violation") None r.lg_violation;
  Util.check_bool (what ^ ": happens-before pairs checked") true
    (r.lg_hb_pairs > 0);
  r

let drive_over_the_wire () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:4 () in
  Fun.protect ~finally:(fun () -> Srv.stop srv) @@ fun () ->
  ignore (drive_lamport addr ~lease:16 ~clients:4 ~requests:50)

(* The TCP transport: a server on a loopback port the kernel picks,
   driven per stamp (lease 1) and through leases (lease 16). *)
let drive_over_tcp () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let srv =
    Srv.start ~addr:(Net.Conn.Tcp { host = "127.0.0.1"; port = 0 }) ~n:2 ()
  in
  Fun.protect ~finally:(fun () -> Srv.stop srv) @@ fun () ->
  let addr = Srv.bound_addr srv in
  (match addr with
   | Net.Conn.Tcp { port; _ } ->
     Util.check_bool "the kernel picked a port" true (port > 0)
   | Net.Conn.Unix_path _ -> Alcotest.fail "a TCP server bound a unix path");
  ignore (drive_lamport addr ~lease:1 ~clients:2 ~requests:50);
  ignore (drive_lamport addr ~lease:16 ~clients:2 ~requests:50)

(* A server counts from its start; a run reports its own share.  Two
   runs in a row against one two-loop server: the second report has
   one entry per loop, and their served counts sum to that run's
   stamps, not to the server's lifetime count. *)
let run_reports_its_own_share () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~io_threads:2 ~addr ~n:2 () in
  Fun.protect ~finally:(fun () -> Srv.stop srv) @@ fun () ->
  let served (r : Svc.Loadgen.report) =
    List.fold_left (fun a s -> a + s.Svc.Loadgen.sr_served) 0 r.lg_shards
  in
  let first = drive_lamport addr ~lease:1 ~clients:2 ~requests:30 in
  Util.check_int "first run: the loops served its stamps" 60 (served first);
  let second = drive_lamport addr ~lease:1 ~clients:3 ~requests:10 in
  Util.check_int "second run: one entry per loop" 2
    (List.length second.lg_shards);
  Util.check_int "second run: the loops served its stamps alone" 30
    (served second)

(* A refused run touches nothing: a zero telemetry interval raises
   before the probe connects, so the server accepts no connection. *)
let run_refuses_before_connecting () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:2 () in
  Fun.protect ~finally:(fun () -> Srv.stop srv) @@ fun () ->
  let conns = Srv.conns_total srv in
  let tel_out = Filename.temp_file "tsnet" ".jsonl" in
  Sys.remove tel_out;
  let cfg =
    { Svc.Loadgen.default with
      clients = 2;
      telemetry =
        Some { Svc.Loadgen.tel_out; tel_append = false; tel_interval_us = 0 } }
  in
  (match Net.Client.run Timestamp.Registry.lamport addr cfg with
   | _ -> Alcotest.fail "a zero telemetry interval was accepted"
   | exception Invalid_argument msg ->
     Util.check_bool "the refusal names the interval" true
       (contains msg "telemetry interval"));
  (* once a later handshake returns, the server has accepted every
     connection made before it *)
  let module C = Net.Client.Make (Timestamp.Lamport) in
  C.close (C.connect addr);
  Util.check_int "no connection accepted but the later one" (conns + 1)
    (Srv.conns_total srv);
  Util.check_bool "no telemetry file written" false (Sys.file_exists tel_out)

(* ------------------------- shutdown paths -------------------------- *)

let shutdown_with_inflight_connections () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let module C = Net.Client.Make (Timestamp.Lamport) in
  let path = sock_path () in
  let addr = Net.Conn.Unix_path path in
  let srv = Srv.start ~addr ~n:4 () in
  let c1 = C.connect addr in
  let _ = C.stamp c1 in
  let c2 = C.connect addr in  (* idle: its handler is blocked in read *)
  Srv.stop srv;  (* must return with both connections still open *)
  (match C.stamp c1 with
   | _ -> Alcotest.fail "stamp served after shutdown"
   | exception Error _ -> ());
  (match C.connect addr with
   | c -> C.close c; Alcotest.fail "connect accepted after shutdown"
   | exception Error _ -> ());
  C.close c1;
  C.close c2;
  (* stop is idempotent *)
  Srv.stop srv

let stop_frame_flow () =
  let module Srv = Net.Server.Make (Timestamp.Efr) in
  let module C = Net.Client.Make (Timestamp.Efr) in
  let path = sock_path () in
  let addr = Net.Conn.Unix_path path in
  let srv = Srv.start ~addr ~n:2 () in
  let c = C.connect addr in
  Util.check_bool "no stop requested yet" false (Srv.stop_requested srv);
  (* the owner blocks in [wait] on its own domain, as [ts_cli serve]
     does, and a client's Stop must wake it *)
  let returned = Atomic.make false in
  let owner =
    Domain.spawn (fun () ->
        Srv.wait srv;
        Atomic.set returned true)
  in
  Unix.sleepf 0.05;
  Util.check_bool "wait blocks until Stop" false (Atomic.get returned);
  C.stop_server c;  (* returns once the server acked Stopping *)
  Util.check_bool "stop flag raised" true (Srv.stop_requested srv);
  let deadline = Obs.Clock.now_ns () + 1_000_000_000 in
  while (not (Atomic.get returned)) && Obs.Clock.now_ns () < deadline do
    Unix.sleepf 0.001
  done;
  let woke = Atomic.get returned in
  if not woke then Srv.stop srv;  (* release the owner so it can be joined *)
  Domain.join owner;
  Util.check_bool "wait returned within 1 s of Stop" true woke;
  Srv.wait srv;  (* returns immediately now *)
  C.close c;
  Srv.stop srv

(* -------------------- raw-socket protocol tests --------------------- *)

(* Hand-rolled peers: drive the reactor with exact byte sequences the
   high-level client would never produce (split writes, unknown
   versions, hostile lengths, pipelined floods).  Reads time out, so a
   server that stops answering fails the test instead of hanging it. *)

let raw_connect addr =
  let fd =
    Unix.socket ~cloexec:true (Net.Conn.domain_of addr) Unix.SOCK_STREAM 0
  in
  Unix.connect fd (Net.Conn.sockaddr_of addr);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let read_exact fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    let k = Unix.read fd b !off (n - !off) in
    if k = 0 then failwith "unexpected EOF from server";
    off := !off + k
  done;
  Bytes.to_string b

let read_frame fd =
  let hdr = read_exact fd 4 in
  let len = Int32.to_int (String.get_int32_be hdr 0) in
  read_exact fd len

let frame_of req =
  let b = Net.Buf.create () in
  Net.Frame.write_req b req;
  Net.Buf.contents b

let expect_eof label fd =
  Util.check_int label 0 (Unix.read fd (Bytes.create 1) 0 1)

let expect_stamp label payload =
  match Net.Frame.decode_resp payload with
  | Ok (_, Net.Frame.Stamp w) -> w
  | Ok _ -> Alcotest.failf "%s: expected Stamp" label
  | Error e ->
    Alcotest.failf "%s: undecodable: %s" label (Net.Frame.error_to_string e)

(* ------------------- the client's receive side --------------------- *)

(* A fake Lamport server on a raw socket: [fake_client] accepts one
   connection on [lfd], reads the handshake's Ping and writes [wire] in
   chunks of [chunk ()] bytes, pausing after each so the client's reads
   see its boundaries, while a client connected at [lease] runs [f].
   [wire] must begin with [fake_pong]. *)
module Lc = Net.Client.Make (Timestamp.Lamport)

let lamport_codec = Net.Codec.for_impl (module Timestamp.Lamport)

let fake_pong =
  Net.Frame.Pong
    { si_impl = Timestamp.Lamport.name; si_kind = Timestamp.Lamport.kind;
      si_n = 8; si_shards = 1; si_codec = Net.Codec.name lamport_codec }

let fake_listen () =
  let path = sock_path () in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 4;
  (path, lfd)

let fake_unlisten (path, lfd) =
  Unix.close lfd;
  (try Unix.unlink path with Unix.Unix_error _ -> ())

let fake_client (path, lfd) ~chunk ~lease wire f =
  let serve () =
    let fd, _ = Unix.accept ~cloexec:true lfd in
    ignore (read_frame fd);
    let n = String.length wire in
    let off = ref 0 in
    while !off < n do
      let k = min (chunk ()) (n - !off) in
      write_all fd (String.sub wire !off k);
      off := !off + k;
      Unix.sleepf 0.0002
    done;
    (* a client still waiting after this reads EOF, not a hang *)
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    let sink = Bytes.create 4096 in
    (try
       while Unix.read fd sink 0 4096 > 0 do
         ()
       done
     with Unix.Unix_error _ -> ());
    Unix.close fd
  in
  let server = Domain.spawn serve in
  Fun.protect
    ~finally:(fun () -> Domain.join server)
    (fun () ->
       let c = Lc.connect ~lease (Net.Conn.Unix_path path) in
       Fun.protect ~finally:(fun () -> Lc.close c) (fun () -> f c))

(* [fake_pong] then what [write] puts in [b]. *)
let fake_wire b write =
  Net.Buf.clear b;
  Net.Frame.write_resp b fake_pong;
  write ();
  Net.Buf.contents b

(* The fake server writes pipelined replies in random-sized chunks, from
   1 byte to past the client's 8 KiB receive buffer.  Frames straddle
   reads, and the receive buffer compacts and grows under them;
   [stamp_batch] must return exactly the stamps written, in order: Stamp
   replies at lease 1, and the mints of Range replies (written ahead of
   the requests for them) at lease 4. *)
let client_reads_any_chunking () =
  let codec = lamport_codec in
  let run seed =
    let rng = Random.State.make [| 25; seed |] in
    (* every varint width *)
    let nat () =
      Random.State.full_int rng (1 lsl (1 + Random.State.int rng 40))
    in
    let chunk () =
      match Random.State.int rng 3 with
      | 0 -> 1 + Random.State.int rng 8
      | 1 -> 9 + Random.State.int rng 300
      | _ -> 309 + Random.State.int rng 12_000
    in
    let listener = fake_listen () in
    let fields (s : _ stamp) =
      (s.st_pid, s.st_call, s.st_shard, s.st_start_tick, s.st_end_tick,
       s.st_ts)
    in
    let client ~lease ~batches ~batch wire =
      fake_client listener ~chunk ~lease wire (fun c ->
          List.concat_map (List.map fields)
            (List.init batches (fun _ -> Lc.stamp_batch c batch)))
    in
    let b = Net.Buf.create () in
    (* lease 1: 1,500 Stamp replies, read in bursts of 50 *)
    let stamps =
      List.init 1500 (fun _ ->
          let start = nat () in
          (nat (), nat (), nat (), start, start + nat (), nat () - nat ()))
    in
    let wire =
      fake_wire b (fun () ->
          List.iter
            (fun (pid, call, shard, start_tick, end_tick, ts) ->
               Net.Frame.write_stamp_v2 b codec ~pid ~call ~shard ~start_tick
                 ~end_tick ts)
            stamps)
    in
    Util.check_bool
      (Printf.sprintf "seed %d: %d bytes of Stamp replies read back" seed
         (String.length wire))
      true
      (client ~lease:1 ~batches:30 ~batch:50 wire = stamps);
    (* lease 4: 300 Range replies of 4 ticks, one per burst of 4 *)
    let ranges =
      List.init 300 (fun _ -> (nat (), nat (), nat (), nat (), nat (), nat () - nat ()))
    in
    let wire =
      fake_wire b (fun () ->
          List.iter
            (fun (pid, call, shard, start_tick, base, ts) ->
               Net.Frame.write_range_v2 b codec ~pid ~call ~shard ~start_tick
                 ~base ~count:4 ts)
            ranges)
    in
    let mints =
      List.concat_map
        (fun (pid, call, shard, start, base, ts) ->
           List.init 4 (fun i -> (pid, call, shard, start, base + i, ts)))
        ranges
    in
    Util.check_bool
      (Printf.sprintf "seed %d: %d bytes of Range replies minted back" seed
         (String.length wire))
      true
      (client ~lease:4 ~batches:300 ~batch:4 wire = mints);
    fake_unlisten listener
  in
  List.iter run Util.seeds

(* A server may grant a lease shorter than asked: a burst minted off
   short grants takes exactly the granted ticks, in order, refilling
   whenever a grant runs out (and a grant of no tick is refused). *)
let lease_mints_only_granted_ticks () =
  let listener = fake_listen () in
  let b = Net.Buf.create () in
  let grants = [ (100, 3); (200, 1); (300, 2); (400, 5) ] in
  let wire =
    fake_wire b (fun () ->
        List.iteri
          (fun call (base, count) ->
             Net.Frame.write_range_v2 b lamport_codec ~pid:0 ~call ~shard:0
               ~start_tick:(base - 1) ~base ~count call)
          grants)
  in
  let ends =
    fake_client listener ~chunk:(fun () -> 7) ~lease:16 wire (fun c ->
        List.map (fun s -> s.st_end_tick) (Lc.stamp_batch c 10))
  in
  Alcotest.(check (list int))
    "a burst of 10 mints the granted ticks alone, over four grants"
    [ 100; 101; 102; 200; 300; 301; 400; 401; 402; 403 ]
    ends;
  let wire =
    fake_wire b (fun () ->
        Net.Frame.write_range_v2 b lamport_codec ~pid:0 ~call:0 ~shard:0
          ~start_tick:0 ~base:1 ~count:0 0)
  in
  (match
     fake_client listener ~chunk:(fun () -> max_int) ~lease:16 wire (fun c ->
         Lc.stamp c)
   with
   | _ -> Alcotest.fail "a Range granting no tick was minted from"
   | exception Error msg ->
     Util.check_bool "the error names the empty grant" true
       (contains msg "grants no tick"));
  fake_unlisten listener

(* A burst longer than the most one lease may grant ([Frame.max_lease])
   mints every stamp inside a range the server granted: one grant per
   anchor, at most [max_lease] consecutive ticks, and no end tick that
   the server later hands to another call. *)
let lease_burst_past_max_lease () =
  let module T = Timestamp.Lamport in
  let module Srv = Net.Server.Make (T) in
  let module C = Net.Client.Make (T) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:4 () in
  let k = Net.Frame.max_lease + 5 in
  let leased = C.connect ~lease:16 addr in
  let burst = Array.of_list (C.stamp_batch leased k) in
  C.close leased;
  let single = C.connect addr in
  let after = List.init 8 (fun _ -> C.stamp single) in
  C.close single;
  Srv.stop srv;
  Util.check_int "every stamp of the burst arrived" k (Array.length burst);
  (* the mints of one grant carry its anchor's call; each grant's mints
     are its consecutive ticks, in order *)
  let grants = ref [] in
  Array.iteri
    (fun i s ->
       match !grants with
       | (call, first, len) :: rest
         when call = s.st_call && s.st_end_tick = first + len ->
         grants := (call, first, len + 1) :: rest
       | _ ->
         if i > 0 && s.st_end_tick <= burst.(i - 1).st_end_tick then
           Alcotest.failf "mint %d: end tick %d after %d" i s.st_end_tick
             burst.(i - 1).st_end_tick;
         grants := (s.st_call, s.st_end_tick, 1) :: !grants)
    burst;
  Alcotest.(check (list int))
    "two grants: a full max_lease one, then the 5 stamps left over"
    [ Net.Frame.max_lease; 5 ]
    (List.rev_map (fun (_, _, len) -> len) !grants);
  let last = burst.(k - 1).st_end_tick in
  List.iter
    (fun s ->
       Util.check_bool
         (Printf.sprintf "lease-1 end tick %d lies past every mint (%d)"
            s.st_end_tick last)
         true (s.st_end_tick > last))
    after

(* A lease's anchor getTS runs because the lease asked for it: a burst of
   8 leases on one connection runs exactly 8 anchors, and once they are
   answered the loop runs nothing more.  Raw frames, so a lease is
   exactly one Get_range. *)
let lease_anchors_on_demand () =
  let check (type r) (module T : Timestamp.Intf.S with type result = r) =
    let module Srv = Net.Server.Make (T) in
    let addr = Net.Conn.Unix_path (sock_path ()) in
    let srv = Srv.start ~addr ~n:16 () in
    let fd = raw_connect addr in
    let lease = frame_of (Net.Frame.Get_range 16) in
    write_all fd (String.concat "" (List.init 8 (fun _ -> lease)));
    for i = 1 to 8 do
      match Net.Frame.decode_resp (read_frame fd) with
      | Ok (_, Net.Frame.Range _) -> ()
      | _ -> Alcotest.failf "%s: lease %d not answered with Range" T.name i
    done;
    let served () =
      write_all fd (frame_of Net.Frame.Stats);
      match Net.Frame.decode_resp (read_frame fd) with
      | Ok (_, Net.Frame.Stats_reply { sr_shards; _ }) ->
        List.fold_left
          (fun acc (sh : Net.Frame.shard_stat) -> acc + sh.ss_served)
          0 sr_shards
      | _ -> Alcotest.failf "%s: expected Stats_reply" T.name
    in
    let s0 = served () in
    Util.check_int (Printf.sprintf "%s: one anchor per lease" T.name) 8 s0;
    Unix.sleepf 0.05;
    Util.check_int
      (Printf.sprintf "%s: no anchor runs while nobody asks" T.name)
      s0 (served ());
    Unix.close fd;
    Srv.stop srv
  in
  check (module Timestamp.Efr);
  check (module Timestamp.Sqrt.One_shot)

(* Every reply is computed while its frame is parsed, so a mixed burst
   sent in one write comes back in request order with no queue to keep
   it so.  The lease's ticks are reserved after the first stamp ended,
   and the second stamp ends after the lease's ticks. *)
let wire_replies_in_request_order () =
  let check (type r) (module T : Timestamp.Intf.S with type result = r) =
    let module Srv = Net.Server.Make (T) in
    let module Dc = Svc.Client.Direct (T) in
    let codec = Net.Codec.for_impl (module T) in
    (* two real timestamps to compare, from a register store of its own *)
    let a, b, a_before_b =
      let c = Dc.connect (Dc.create_ctx ~n:4 ()) in
      let a = Dc.stamp c in
      let b = Dc.stamp c in
      ( Net.Codec.encode codec a.st_ts,
        Net.Codec.encode codec b.st_ts,
        T.compare_ts a.st_ts b.st_ts )
    in
    let addr = Net.Conn.Unix_path (sock_path ()) in
    let srv = Srv.start ~addr ~n:4 () in
    let fd = raw_connect addr in
    write_all fd
      (String.concat ""
         (List.map frame_of
            [ Net.Frame.Ping; Net.Frame.Get_stamp; Net.Frame.Compare { a; b };
              Net.Frame.Get_range 4; Net.Frame.Stats; Net.Frame.Get_stamp;
              Net.Frame.Compare { a = "\255\255\255"; b } ]));
    let next what =
      match Net.Frame.decode_resp (read_frame fd) with
      | Ok (_, r) -> r
      | Error e ->
        Alcotest.failf "%s: %s undecodable: %s" T.name what
          (Net.Frame.error_to_string e)
    in
    let fail what =
      Alcotest.failf "%s: reply out of order, expected %s" T.name what
    in
    (match next "Pong" with Net.Frame.Pong _ -> () | _ -> fail "Pong");
    let stamp () =
      match next "Stamp" with Net.Frame.Stamp w -> w | _ -> fail "Stamp"
    in
    let s1 = stamp () in
    (match next "Cmp" with
     | Net.Frame.Cmp c ->
       Util.check_bool (T.name ^ ": Cmp answers compare_ts") a_before_b c
     | _ -> fail "Cmp");
    let g =
      match next "Range" with Net.Frame.Range g -> g | _ -> fail "Range"
    in
    (match next "Stats_reply" with
     | Net.Frame.Stats_reply _ -> ()
     | _ -> fail "Stats_reply");
    let s2 = stamp () in
    (match next "Err" with Net.Frame.Err _ -> () | _ -> fail "Err");
    Util.check_bool (T.name ^ ": end ticks increase across the stamps") true
      (s1.w_end_tick < s2.w_end_tick);
    Util.check_bool (T.name ^ ": the range's base follows the first stamp")
      true (g.g_base > s1.w_end_tick);
    Util.check_bool (T.name ^ ": the second stamp follows the range") true
      (s2.w_end_tick >= g.g_base + g.g_count);
    Unix.close fd;
    Srv.stop srv
  in
  check (module Timestamp.Lamport);
  check (module Timestamp.Sqrt.One_shot)

(* A one-shot object spends one pid per stamp, and the getTS runs on the
   I/O loop: past n, Direct.stamp's Invalid_argument must reach the peer
   as Err and never kill the loop, which keeps answering a second
   connection. *)
let wire_oneshot_exhaustion () =
  let module T = Timestamp.Sqrt.One_shot in
  let module Srv = Net.Server.Make (T) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~io_threads:1 ~addr ~n:4 () in
  let fd = raw_connect addr in
  write_all fd
    (String.concat "" (List.init 6 (fun _ -> frame_of Net.Frame.Get_stamp)));
  let stamps =
    List.init 6 (fun i ->
        match Net.Frame.decode_resp (read_frame fd) with
        | Ok (_, Net.Frame.Stamp w) when i < 4 -> Some w
        | Ok (_, Net.Frame.Err msg) when i >= 4 ->
          Util.check_bool
            (Printf.sprintf "stamp %d: Err names the exhaustion" (i + 1))
            true (contains msg "exhausted");
          None
        | _ ->
          Alcotest.failf "stamp %d: expected %s" (i + 1)
            (if i < 4 then "Stamp" else "Err"))
    |> List.filter_map Fun.id
  in
  let w1 = List.nth stamps 0 and w2 = List.nth stamps 1 in
  let other = raw_connect addr in
  write_all other
    (frame_of Net.Frame.Ping
     ^ frame_of (Net.Frame.Compare { a = w1.w_ts; b = w2.w_ts }));
  (match Net.Frame.decode_resp (read_frame other) with
   | Ok (_, Net.Frame.Pong _) -> ()
   | _ -> Alcotest.fail "second connection: expected Pong");
  (match Net.Frame.decode_resp (read_frame other) with
   | Ok (_, Net.Frame.Cmp c) ->
     Util.check_bool "second connection: earlier stamp compares below" true c
   | _ -> Alcotest.fail "second connection: expected Cmp");
  Unix.close other;
  Unix.close fd;
  Srv.stop srv

(* A frame delivered one byte per read must accumulate across loop
   passes and still be answered. *)
let wire_split_frames () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:4 () in
  let fd = raw_connect addr in
  let f = frame_of Net.Frame.Get_stamp in
  String.iter
    (fun ch ->
       write_all fd (String.make 1 ch);
       Unix.sleepf 0.002)
    f;
  let w = expect_stamp "split frame" (read_frame fd) in
  Util.check_bool "split frame answered" true (w.Net.Frame.w_end_tick >= 0);
  (* and the next frame, sent whole on the same connection, still works *)
  write_all fd f;
  let w' = expect_stamp "after split" (read_frame fd) in
  Util.check_bool "stream still aligned" true
    (w.Net.Frame.w_end_tick < w'.Net.Frame.w_end_tick);
  Unix.close fd;
  Srv.stop srv

(* A pipelined burst bigger than the 8 KiB read buffer: frames straddle
   refill boundaries; responses must come back complete and in order. *)
let wire_pipelined_burst () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:4 () in
  let fd = raw_connect addr in
  let k = 3000 in
  let burst =
    let b = Net.Buf.create () in
    for _ = 1 to k do
      Net.Frame.write_req b Net.Frame.Get_stamp
    done;
    Net.Buf.contents b
  in
  Util.check_bool "burst straddles the read buffer" true
    (String.length burst > 8192);
  write_all fd burst;
  let last = ref (-1) in
  for i = 1 to k do
    let w = expect_stamp (Printf.sprintf "burst %d" i) (read_frame fd) in
    Util.check_bool "burst responses in order" true
      (!last < w.Net.Frame.w_end_tick);
    last := w.Net.Frame.w_end_tick
  done;
  Unix.close fd;
  Srv.stop srv

(* A reader that stalls while the server owes it hundreds of KiB: the
   write queue grows past the high-water mark, the loop stops reading
   from the connection (backpressure), and once the reader drains,
   every response arrives, in order, with nothing lost. *)
let wire_slow_reader_backpressure () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:4 () in
  let fd = raw_connect addr in
  let k = 20_000 in
  let burst =
    let b = Net.Buf.create () in
    for _ = 1 to k do
      Net.Frame.write_req b Net.Frame.Get_stamp
    done;
    Net.Buf.contents b
  in
  (* the writer must not share the reader's pace, or the test deadlocks
     against the very backpressure it is checking *)
  let writer = Domain.spawn (fun () -> write_all fd burst) in
  let last = ref (-1) in
  for i = 1 to k do
    if i <= 20 then Unix.sleepf 0.005;  (* stall: let the backlog build *)
    let w = expect_stamp (Printf.sprintf "slow %d" i) (read_frame fd) in
    Util.check_bool "responses survive backpressure in order" true
      (!last < w.Net.Frame.w_end_tick);
    last := w.Net.Frame.w_end_tick
  done;
  Domain.join writer;
  Unix.close fd;
  Srv.stop srv

(* The version byte must be 2.  Any other value — 1 included — draws
   an Err naming it, and the connection closes. *)
let wire_unknown_versions () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:4 () in
  List.iter
    (fun v ->
       let fd = raw_connect addr in
       (* a Ping with version byte [v] *)
       write_all fd (Printf.sprintf "\000\000\000\002%c\001" (Char.chr v));
       (match Net.Frame.decode_resp (read_frame fd) with
        | Ok (_, Net.Frame.Err msg) ->
          Util.check_bool
            (Printf.sprintf "version %d error text" v)
            true
            (contains msg (Printf.sprintf "bad frame version %d" v))
        | _ -> Alcotest.failf "version %d not answered with Err" v);
       expect_eof (Printf.sprintf "version %d connection closed" v) fd;
       Unix.close fd)
    [ 1; 7 ];
  Srv.stop srv

(* One hostile frame: a 15-byte Compare whose first length is max_int.
   Its peer gets Err and is closed, and the single I/O loop keeps
   serving everyone else. *)
let wire_hostile_length () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~io_threads:1 ~addr ~n:4 () in
  let frame =
    let b = Bytes.create 9 in
    let n = Net.Codec.put_uv b 0 max_int in
    "\000\000\000\011\002\004" ^ Bytes.sub_string b 0 n
  in
  Util.check_int "hostile frame size" 15 (String.length frame);
  let hostile = raw_connect addr in
  write_all hostile frame;
  (match Net.Frame.decode_resp (read_frame hostile) with
   | Ok (_, Net.Frame.Err _) -> ()
   | _ -> Alcotest.fail "hostile frame not answered with Err");
  expect_eof "hostile peer closed" hostile;
  Unix.close hostile;
  let fd = raw_connect addr in
  write_all fd (frame_of Net.Frame.Get_stamp);
  ignore (expect_stamp "after hostile frame" (read_frame fd));
  Unix.close fd;
  Srv.stop srv

(* An implementation without a wire codec is refused before a socket
   exists. *)
let wire_refuses_codecless_impl () =
  let (Timestamp.Registry.Impl (module M)) = lost_increment () in
  let path = sock_path () in
  Sys.remove path;
  (match
     let module Srv = Net.Server.Make (M) in
     Srv.stop (Srv.start ~addr:(Net.Conn.Unix_path path) ~n:2 ())
   with
   | () -> Alcotest.fail "implementation without a codec was served"
   | exception Invalid_argument msg ->
     Util.check_bool "refusal names the implementation" true
       (contains msg "mutant-lost-increment"));
  Util.check_bool "no socket created" false (Sys.file_exists path)

(* The process's OS threads, counted from /proc/self/task; [None] where
   /proc is not mounted.  The OCaml 5.1 runtime runs two per domain, the
   domain and its backup thread, and the backup thread may start after
   [Domain.spawn] returns. *)
let os_threads () =
  match Sys.readdir "/proc/self/task" with
  | a -> Some (Array.length a)
  | exception Sys_error _ -> None

(* [after] never exceeds [before].  Not equality: a thread of a domain
   joined by an earlier test may still be exiting at [before]. *)
let check_no_thread_spawned label before after =
  match (before, after) with
  | Some b, Some a ->
    Util.check_bool (Printf.sprintf "%s (%d -> %d threads)" label b a) true
      (a <= b)
  | _ -> ()

(* Connection churn: 200 sequential connect/close cycles must not grow
   the process's thread count (the PR-9 design leaked one handler
   domain per connection ever accepted), nor may a lease, and the
   telemetry table stays at one group per I/O loop with the live count
   draining back to zero. *)
let wire_churn_bounded () =
  let module Srv = Net.Server.Make (Timestamp.Efr) in
  let module C = Net.Client.Make (Timestamp.Efr) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:4 () in
  Unix.sleepf 0.05;  (* let every backup thread start *)
  let th0 = os_threads () in
  for _ = 1 to 200 do
    let c = C.connect addr in
    C.close c
  done;
  check_no_thread_spawned "no thread spawned by churn" th0 (os_threads ());
  Util.check_int "conns accounted" 200 (Srv.conns_total srv);
  let sources = Srv.net_sources srv in
  Util.check_int "one gauge group of six per loop" (6 * Srv.domains srv)
    (List.length sources);
  let live_gauges () =
    List.fold_left
      (fun acc (name, f) ->
         if String.length name >= 6
            && String.sub name (String.length name - 6) 6 = ".conns"
         then acc +. f ()
         else acc)
      0. sources
  in
  (* the loops reap closed fds on their next pass; poll briefly *)
  let deadline = Obs.Clock.now_ns () + 5_000_000_000 in
  while
    (Srv.live_conns srv > 0 || live_gauges () > 0.)
    && Obs.Clock.now_ns () < deadline
  do
    Unix.sleepf 0.01
  done;
  Util.check_int "live connections drained" 0 (Srv.live_conns srv);
  Util.check_bool "live loop gauges drained" true (live_gauges () = 0.);
  (* a lease's anchor runs on the loop that asked *)
  let th1 = os_threads () in
  let c = C.connect ~lease:4 addr in
  ignore (C.stamp c);
  C.close c;
  check_no_thread_spawned "a lease spawns no thread" th1 (os_threads ());
  Srv.stop srv

(* Nothing polls: an idle server holding two open connections, one of
   which took leases, has its loop parked in select, and runs no anchor getTS until a lease asks for one, so the
   process spends well under 5 ms of CPU over half a second.  (Polling
   loops spent 30-40 ms; re-running the anchor every 200 us, about
   50 ms.) *)
let wire_idle_server_parks () =
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let module C = Net.Client.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:4 () in
  let c = C.connect addr in
  let leased = C.connect ~lease:16 addr in
  for _ = 1 to 20 do
    ignore (C.stamp c);
    ignore (C.stamp leased)
  done;
  Unix.sleepf 0.05;  (* let every waiter park *)
  let ms = Util.idle_cpu_ms 0.5 in
  C.close c;
  C.close leased;
  Srv.stop srv;
  Util.check_bool
    (Printf.sprintf "idle server used %.2f ms of CPU in 500 ms" ms)
    true (ms < 5.0)

(* The soft open-fd limit, from /proc/self/limits; 0 when unknown. *)
let fd_limit () =
  match In_channel.with_open_text "/proc/self/limits" In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    List.find_map
      (fun line ->
         if String.starts_with ~prefix:"Max open files" line then
           match
             String.split_on_char ' ' line |> List.filter (( <> ) "")
           with
           | _ :: _ :: _ :: soft :: _ -> int_of_string_opt soft
           | _ -> None
         else None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:0

let fd_number (fd : Unix.file_descr) : int = Obj.magic fd

(* select cannot watch an fd at or above FD_SETSIZE (1024): a connection
   that lands there is refused at accept — the peer sees EOF — while the
   loop keeps serving everyone else.  (Letting it reach select killed the
   loop's domain and hung its connections.) *)
let wire_fd_setsize_refused () =
  if fd_limit () < 1100 then Alcotest.skip ();
  let module Srv = Net.Server.Make (Timestamp.Lamport) in
  let module C = Net.Client.Make (Timestamp.Lamport) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  let srv = Srv.start ~addr ~n:4 () in
  let existing = C.connect addr in
  ignore (C.stamp existing);
  (* hold fds until the next one handed out is >= 1024 *)
  let held = ref [] in
  let release () =
    List.iter Unix.close !held;
    held := []
  in
  Fun.protect ~finally:release (fun () ->
      let r, w = Unix.pipe ~cloexec:true () in
      held := [ r; w ];
      let rec fill () =
        let fd = Unix.dup ~cloexec:true r in
        held := fd :: !held;
        if fd_number fd < 1023 then fill ()
      in
      fill ();
      let peer = raw_connect addr in
      held := peer :: !held;
      Util.check_bool "the client's own fd is past FD_SETSIZE" true
        (fd_number peer >= 1024);
      expect_eof "peer past FD_SETSIZE sees EOF" peer;
      let s = C.stamp existing in
      Util.check_bool "existing connection still served" true
        (s.st_end_tick >= 0));
  Util.check_int "refused counted" 1 (Srv.refused srv);
  let fd = raw_connect addr in
  write_all fd (frame_of Net.Frame.Stats);
  (match Net.Frame.decode_resp (read_frame fd) with
   | Ok (_, Net.Frame.Stats_reply { sr_refused; _ }) ->
     Util.check_int "Stats reports the refusal" 1 sr_refused
   | _ -> Alcotest.fail "expected Stats_reply");
  Unix.close fd;
  C.close existing;
  Srv.stop srv

(* Lost-wakeup stress: in-process sessions, wire clients and leased
   wire clients send pipelined bursts of random depth with random
   microsecond gaps, so completions race every stage of a waiter's park,
   and hand-overs race each wire loop's wait in select.  A watchdog
   turns a lost wakeup into a failure instead of a hang; every stamp
   must also pass the timed happens-before checker. *)
let park_stress () =
  let clients = 3 and rounds = 150 in
  let calls_in_session_order stamps =
    List.map (fun s -> s.st_call) stamps
    = List.init (List.length stamps) Fun.id
  in
  (* a connection's stamps run on its loop's process, in the order sent *)
  let rec calls_increase = function
    | a :: (b :: _ as rest) -> a.st_call < b.st_call && calls_increase rest
    | _ -> true
  in
  let one_pid_in_order = function
    | [] -> true
    | s0 :: _ as stamps ->
      List.for_all (fun s -> s.st_pid = s0.st_pid) stamps
      && calls_increase stamps
  in
  (* a lease's mints share its anchor's call *)
  let rec ends_increase = function
    | a :: (b :: _ as rest) ->
      a.st_end_tick < b.st_end_tick && ends_increase rest
    | _ -> true
  in
  let drive ~label ~in_order
      (burst : int -> int -> Timestamp.Efr.result stamp list) =
    let progress = Atomic.make 0 and finished = Atomic.make 0 in
    let doms =
      List.init clients (fun i ->
          Domain.spawn (fun () ->
              Fun.protect ~finally:(fun () -> Atomic.incr finished)
              @@ fun () ->
              let rng = Random.State.make [| 14; i |] in
              let acc = ref [] in
              for _ = 1 to rounds do
                let depth = 1 + Random.State.int rng 12 in
                if Random.State.bool rng then
                  Unix.sleepf (float_of_int (Random.State.int rng 100) *. 1e-6);
                let got = burst i depth in
                (* Alcotest's checks are not domain-safe: fail plainly *)
                if List.length got <> depth then
                  failwith (label ^ ": a burst came back short");
                acc := List.rev_append got !acc;
                Atomic.incr progress
              done;
              List.rev !acc))
    in
    let last = ref (-1) and since = ref (Obs.Clock.now_ns ()) in
    while Atomic.get finished < clients do
      Unix.sleepf 0.01;
      let p = Atomic.get progress in
      if p <> !last then begin
        last := p;
        since := Obs.Clock.now_ns ()
      end
      else if Obs.Clock.now_ns () - !since > 10_000_000_000 then
        Alcotest.failf "%s: no burst completed for 10 s (lost wakeup)" label
    done;
    let per_client = List.map Domain.join doms in
    List.iteri
      (fun i stamps ->
         Util.check_bool
           (Printf.sprintf "%s: client %d stamps in issue order" label i)
           true (in_order stamps))
      per_client;
    let timed =
      List.concat_map
        (List.map (fun s ->
             { Timestamp.Checker.td_pid = s.st_pid; td_call = s.st_call;
               td_start = s.st_start_tick; td_end = s.st_end_tick;
               td_ts = s.st_ts }))
        per_client
    in
    match
      Timestamp.Checker.check_timed ~order:Timestamp.Efr.order
        ~compare_ts:Timestamp.Efr.compare_ts
        ~pp:Timestamp.Efr.pp_ts timed
    with
    | Result.Ok _ -> ()
    | Result.Error v ->
      Alcotest.failf "%s: %a" label Timestamp.Checker.pp_violation v
  in
  let module S = Svc.Service.Make (Timestamp.Efr) in
  let module Ci = Svc.Client.Inproc (Timestamp.Efr) in
  let svc = S.start ~shards:2 ~batch_max:16 ~n:clients () in
  let inproc = Array.init clients (fun _ -> Ci.connect svc) in
  drive ~label:"inproc" ~in_order:calls_in_session_order (fun i depth ->
      Ci.stamp_batch inproc.(i) depth);
  S.stop svc;
  let module Srv = Net.Server.Make (Timestamp.Efr) in
  let module C = Net.Client.Make (Timestamp.Efr) in
  let addr = Net.Conn.Unix_path (sock_path ()) in
  (* one pid per I/O loop, however many clients connect *)
  let srv = Srv.start ~io_threads:2 ~addr ~n:2 () in
  let wire = Array.init clients (fun _ -> C.connect addr) in
  drive ~label:"wire" ~in_order:one_pid_in_order (fun i depth ->
      C.stamp_batch wire.(i) depth);
  Array.iter C.close wire;
  let leased = Array.init clients (fun _ -> C.connect ~lease:4 addr) in
  drive ~label:"leased wire" ~in_order:ends_increase (fun i depth ->
      C.stamp_batch leased.(i) depth);
  Array.iter C.close leased;
  Srv.stop srv

(* --------------------- the in-process transports -------------------- *)

let inproc_client_api () =
  let module S = Svc.Service.Make (Timestamp.Efr) in
  let module C = Svc.Client.Inproc (Timestamp.Efr) in
  let svc = S.start ~n:2 () in
  let c = C.connect svc in
  let s1 = C.stamp c in
  let batch = resp_within "inproc burst" (fun () -> C.stamp_batch c 4) in
  let s2 = C.stamp c in
  Util.check_int "batch size" 4 (List.length batch);
  let all = (s1 :: batch) @ [ s2 ] in
  let calls = List.map (fun s -> s.st_call) all in
  Util.check_bool "calls sequential per session" true
    (calls = List.init (List.length all) (fun i -> i));
  Util.check_bool "order holds" true (C.compare c s1 s2);
  let d = C.stamp_async c in
  let s3 = d () in
  Util.check_bool "async completes after s2" true
    (s2.st_end_tick < s3.st_end_tick);
  C.close c;
  S.stop svc

let direct_client_api () =
  let module C = Svc.Client.Direct (Timestamp.Lamport) in
  let ctx = C.create_ctx ~n:2 () in
  let c0 = C.connect ctx in
  let c1 = C.connect ctx in
  let a = C.stamp c0 in
  let b = C.stamp c1 in
  Util.check_int "first client owns pid 0" 0 a.st_pid;
  Util.check_int "second client owns pid 1" 1 b.st_pid;
  Util.check_bool "order holds" true (C.compare c0 a b);
  (* a burst continues the handle's calls in order, ordered by its ticks
     and stamped with one response time *)
  let burst = resp_within "direct burst" (fun () -> C.stamp_batch c0 3) in
  Util.check_bool "burst calls continue in order" true
    (List.map (fun (s : _ Svc.Client.stamp) -> (s.st_pid, s.st_call)) burst
     = [ (0, 1); (0, 2); (0, 3) ]);
  Util.check_bool "burst ticks ordered" true
    (List.for_all2
       (fun (x : _ Svc.Client.stamp) (y : _ Svc.Client.stamp) ->
          x.st_end_tick < y.st_start_tick && C.compare c0 x y)
       [ List.nth burst 0; List.nth burst 1 ]
       [ List.nth burst 1; List.nth burst 2 ]);
  Util.check_bool "burst shares one response time" true
    (List.for_all
       (fun (s : _ Svc.Client.stamp) ->
          s.st_resp_us = (List.hd burst).st_resp_us)
       burst);
  Util.check_int "next stamp after the burst" 4 (C.stamp c0).st_call;
  (match C.connect ctx with
   | _ -> Alcotest.fail "third long-lived client admitted at n=2"
   | exception Invalid_argument _ -> ());
  C.close c0;
  C.close c1

let suite =
  ( "net",
    [ req_roundtrip;
      resp_roundtrip;
      Util.case "frame: truncated/oversized/bad-version rejected" frame_rejects;
      buf_state_machine;
      decoders_never_raise ]
    @ codec_roundtrips
    @ [ Util.case "codec: truncated/oversized/unregistered rejected"
          codec_rejects;
      Util.case "codec: every registry impl has a safe codec"
        registry_codecs_safe;
      Util.case "frame: v2 stamp writer allocates nothing"
        stamp_writer_zero_alloc;
      Util.case "frame: in-place decoders allocate only their result"
        in_place_decoders_allocate_only_their_result;
      Util.case "client: replies in any chunking read back exactly"
        client_reads_any_chunking;
      Util.case "conn: address parsing" addr_parsing;
      Util.case "wire: end-to-end over a unix socket" wire_end_to_end;
      Util.case "wire: Stats reports one entry per I/O loop"
        wire_stats_per_loop;
      Util.case "wire: frames split across byte-sized reads"
        wire_split_frames;
      Util.case "wire: pipelined burst straddles the read buffer"
        wire_pipelined_burst;
      Util.case "wire: slow reader gets backpressure, loses nothing"
        wire_slow_reader_backpressure;
      Util.case "wire: unknown protocol versions draw Err" wire_unknown_versions;
      Util.case "wire: hostile length gets Err, loop keeps serving"
        wire_hostile_length;
      Util.case "wire: implementation without a codec is never served"
        wire_refuses_codecless_impl;
      Util.case "wire: churn keeps domains and gauges bounded"
        wire_churn_bounded;
      Util.case "wire: an idle server parks: no CPU burnt"
        wire_idle_server_parks;
      Util.case "wire: an fd past FD_SETSIZE is refused, the loop lives"
        wire_fd_setsize_refused;
      Util.case "park: random bursts and gaps never lose a wakeup"
        park_stress;
      Util.case "wire: churned connections never exhaust n=2"
        wire_connection_churn_keeps_pids;
      Util.case "wire: long-lived n below io_threads is refused"
        wire_start_refuses_n_below_loops;
      Util.case "lease: concurrent clients stay hb-sound"
        lease_concurrent_clients;
      Util.case "lease: anchors run only on demand" lease_anchors_on_demand;
      Util.case "loadgen: Drive over the wire checks every stamp"
        drive_over_the_wire;
      Util.case "loadgen: Drive over TCP loopback, lease 1 and 16"
        drive_over_tcp;
      Util.case "loadgen: Net.Client.run reports this run's loop counts"
        run_reports_its_own_share;
      Util.case "loadgen: Net.Client.run refuses before it connects"
        run_refuses_before_connecting;
      Util.case "lease: a burst mints only the ticks short grants granted"
        lease_mints_only_granted_ticks;
      Util.case "lease: a burst past max_lease mints only granted ticks"
        lease_burst_past_max_lease;
      Util.case "wire: a mixed burst is answered in request order"
        wire_replies_in_request_order;
      Util.case "wire: one-shot pid exhaustion is an Err, the loop lives"
        wire_oneshot_exhaustion;
      Util.case "shutdown: graceful with in-flight connections"
        shutdown_with_inflight_connections;
      Util.case "shutdown: Stop frame reaches the owner" stop_frame_flow;
      Util.case "client: Inproc transport semantics" inproc_client_api;
      Util.case "client: Direct transport semantics" direct_client_api ] )
