(* Binary wire format for the timestamp service.

   Every frame is [u32 length][payload] with the length big-endian and
   counting the payload only.  A payload is [u8 version][u8 opcode][body]
   and the version byte is always 2; any other value is refused.

   A body is a sequence of fields of three kinds: unsigned LEB128
   varints (every integer), varint-length-prefixed byte strings (names,
   messages, and timestamps as {!Codec} payloads), and single bytes
   (bools and the object kind).  Decoders are strict: every length is
   checked against the bytes actually left, and trailing bytes are an
   error.

   One framing rule: a writer computes the frame's length before it
   appends the first byte.  The send buffer may compact or grow under
   any append (see {!Buf}), so a writer that reserved the length prefix
   and patched it afterwards would write to a stale position. *)

let version = 2

let max_payload = 1 lsl 24  (* 16 MiB: largest payload we will frame *)

let max_lease = 1 lsl 20  (* largest Get_range a server will grant *)

type kind = [ `One_shot | `Long_lived ]

type req =
  | Ping
  | Get_stamp
  | Get_range of int
  | Compare of { a : string; b : string }  (* two {!Codec} payloads *)
  | Stats
  | Stop

type wire_stamp = {
  w_pid : int;
  w_call : int;
  w_shard : int;
  w_start_tick : int;
  w_end_tick : int;
  w_ts : string;  (* {!Codec} payload *)
}

type wire_range = {
  g_pid : int;  (* the anchor operation's identity... *)
  g_call : int;
  g_shard : int;
  g_start_tick : int;  (* ...and its start tick, shared by every mint *)
  g_base : int;  (* first leased end tick *)
  g_count : int;
  g_ts : string;  (* the anchor's timestamp payload *)
}

type server_info = {
  si_impl : string;
  si_kind : kind;
  si_n : int;
  si_shards : int;
  si_codec : string;  (* {!Codec.name} of the stamp payloads *)
}

type shard_stat = { ss_served : int; ss_batches : int; ss_max_batch : int }

type conn_stat = {
  cn_slot : int;
  cn_conns : int;  (* live connections on this loop *)
  cn_requests : int;  (* frames handled *)
  cn_stamps : int;  (* stamps issued, leased ticks included *)
  cn_leases : int;
  cn_bytes_in : int;
  cn_bytes_out : int;
}

type resp =
  | Pong of server_info
  | Stamp of wire_stamp
  | Range of wire_range
  | Cmp of bool
  | Stats_reply of {
      sr_shards : shard_stat list;
      sr_conns : conn_stat list;
      sr_refused : int;
    }
  | Stopping
  | Err of string

type error =
  | Bad_version of int
  | Bad_opcode of int
  | Truncated
  | Oversized of int
  | Malformed of string

let error_to_string = function
  | Bad_version v -> Printf.sprintf "bad frame version %d (want %d)" v version
  | Bad_opcode op -> Printf.sprintf "bad opcode %d" op
  | Truncated -> "truncated frame"
  | Oversized len -> Printf.sprintf "oversized frame (%d > %d)" len max_payload
  | Malformed msg -> Printf.sprintf "malformed frame: %s" msg

let op_ping = 1
let op_get_stamp = 2
let op_get_range = 3
let op_compare = 4
let op_stats = 5
let op_stop = 6

let op_pong = 65
let op_stamp = 66
let op_range = 67
let op_cmp = 68
let op_stats_reply = 69
let op_stopping = 70
let op_err = 71

(* -------------------------------- encoding ------------------------- *)

type field =
  | U of int  (* unsigned varint *)
  | S of string  (* varint length, then the bytes *)
  | B of int  (* one byte *)

(* Integer fields are unsigned: a negative one is the caller's bug, and
   it is refused while sizing, before the frame is reserved. *)
let uv_size v =
  if v < 0 then invalid_arg "Frame: negative integer field";
  Codec.uv_size v

(* The framing rule in code.  A writer sizes the payload ([len] counts
   the version and opcode bytes), [reserve_frame] reserves the whole
   frame and writes its header, the writer stores the body into
   [Buf.bytes b] from the returned position, and [commit] appends it all
   at once.  Nothing touches [b] in between, so no position goes
   stale. *)
let reserve_frame b op ~len =
  if len > max_payload then
    invalid_arg
      (Printf.sprintf "Frame: payload %d exceeds max %d" len max_payload);
  let pos = Buf.reserve b (4 + len) in
  let bytes = Buf.bytes b in
  Bytes.unsafe_set bytes pos (Char.unsafe_chr (len lsr 24));
  Bytes.unsafe_set bytes (pos + 1) (Char.unsafe_chr ((len lsr 16) land 0xff));
  Bytes.unsafe_set bytes (pos + 2) (Char.unsafe_chr ((len lsr 8) land 0xff));
  Bytes.unsafe_set bytes (pos + 3) (Char.unsafe_chr (len land 0xff));
  Bytes.unsafe_set bytes (pos + 4) (Char.unsafe_chr version);
  Bytes.unsafe_set bytes (pos + 5) (Char.unsafe_chr op);
  pos + 6

(* [stop] is where the body writer ended: exactly [4 + len] bytes past
   the append position, or the sizing was wrong. *)
let commit b ~len stop =
  assert (stop = Buf.offset b + Buf.length b + 4 + len);
  Buf.advance b (4 + len)

let field_size = function
  | U v -> uv_size v
  | S s -> uv_size (String.length s) + String.length s
  | B _ -> 1

let put_field bytes pos = function
  | U v -> Codec.put_uv bytes pos v
  | S s ->
    let pos = Codec.put_uv bytes pos (String.length s) in
    Bytes.blit_string s 0 bytes pos (String.length s);
    pos + String.length s
  | B v ->
    Bytes.set bytes pos (Char.chr v);
    pos + 1

let rec put_fields bytes pos = function
  | [] -> pos
  | f :: fields -> put_fields bytes (put_field bytes pos f) fields

let write_fields b op fields =
  let len = List.fold_left (fun n f -> n + field_size f) 2 fields in
  let pos = reserve_frame b op ~len in
  commit b ~len (put_fields (Buf.bytes b) pos fields)

let write_req b = function
  | Ping -> write_fields b op_ping []
  | Get_stamp -> write_fields b op_get_stamp []
  | Get_range k -> write_fields b op_get_range [ U k ]
  | Compare { a; b = b' } -> write_fields b op_compare [ S a; S b' ]
  | Stats -> write_fields b op_stats []
  | Stop -> write_fields b op_stop []

(* ------------------------ hot-path stamp writers -------------------- *)

(* The one encoder of each reply that carries a timestamp.  The fields
   are plain ints and the timestamp is written straight by its codec, so
   the server's per-stamp path allocates zero minor words per stamp
   (pinned by a test and by E19's codec microbench); [write_resp] hands
   them a decoded reply's fields and [raw]. *)

let write_stamp_v2 b (codec : _ Codec.t) ~pid ~call ~shard ~start_tick
    ~end_tick ts =
  let ts_sz = codec.Codec.c_size ts in
  let len =
    2 + uv_size pid + uv_size call + uv_size shard + uv_size start_tick
    + uv_size end_tick + uv_size ts_sz + ts_sz
  in
  let pos = reserve_frame b op_stamp ~len in
  let bytes = Buf.bytes b in
  let pos = Codec.put_uv bytes pos pid in
  let pos = Codec.put_uv bytes pos call in
  let pos = Codec.put_uv bytes pos shard in
  let pos = Codec.put_uv bytes pos start_tick in
  let pos = Codec.put_uv bytes pos end_tick in
  let pos = Codec.put_uv bytes pos ts_sz in
  commit b ~len (codec.Codec.c_put bytes pos ts)

let write_range_v2 b (codec : _ Codec.t) ~pid ~call ~shard ~start_tick ~base
    ~count ts =
  let ts_sz = codec.Codec.c_size ts in
  let len =
    2 + uv_size pid + uv_size call + uv_size shard + uv_size start_tick
    + uv_size base + uv_size count + uv_size ts_sz + ts_sz
  in
  let pos = reserve_frame b op_range ~len in
  let bytes = Buf.bytes b in
  let pos = Codec.put_uv bytes pos pid in
  let pos = Codec.put_uv bytes pos call in
  let pos = Codec.put_uv bytes pos shard in
  let pos = Codec.put_uv bytes pos start_tick in
  let pos = Codec.put_uv bytes pos base in
  let pos = Codec.put_uv bytes pos count in
  let pos = Codec.put_uv bytes pos ts_sz in
  commit b ~len (codec.Codec.c_put bytes pos ts)

(* A timestamp payload kept as its bytes, unparsed: [w_ts] and [g_ts]. *)
let raw : string Codec.t =
  { c_name = "raw";
    c_size = String.length;
    c_put =
      (fun b pos s ->
         Bytes.blit_string s 0 b pos (String.length s);
         pos + String.length s);
    c_get = (fun c -> Codec.get_string c (c.lim - c.pos)) }

let write_resp b = function
  | Pong i ->
    write_fields b op_pong
      [ S i.si_impl;
        B (match i.si_kind with `One_shot -> 0 | `Long_lived -> 1);
        U i.si_n; U i.si_shards; S i.si_codec ]
  | Stamp w ->
    write_stamp_v2 b raw ~pid:w.w_pid ~call:w.w_call ~shard:w.w_shard
      ~start_tick:w.w_start_tick ~end_tick:w.w_end_tick w.w_ts
  | Range g ->
    write_range_v2 b raw ~pid:g.g_pid ~call:g.g_call ~shard:g.g_shard
      ~start_tick:g.g_start_tick ~base:g.g_base ~count:g.g_count g.g_ts
  | Cmp v -> write_fields b op_cmp [ B (Bool.to_int v) ]
  | Stats_reply { sr_shards; sr_conns; sr_refused } ->
    let shard s = [ U s.ss_served; U s.ss_batches; U s.ss_max_batch ] in
    let conn c =
      [ U c.cn_slot; U c.cn_conns; U c.cn_requests; U c.cn_stamps;
        U c.cn_leases; U c.cn_bytes_in; U c.cn_bytes_out ]
    in
    write_fields b op_stats_reply
      ((U (List.length sr_shards) :: List.concat_map shard sr_shards)
       @ (U (List.length sr_conns) :: List.concat_map conn sr_conns)
       @ [ U sr_refused ])
  | Stopping -> write_fields b op_stopping []
  | Err msg -> write_fields b op_err [ S msg ]

(* The [encode_*] pair return the *payload* (what [decode_*] take and
   what {!Conn.recv} hands back): the frame minus its length prefix. *)
let payload_of write r =
  let b = Buf.create ~cap:64 () in
  write b r;
  Buf.consume b 4;
  Buf.contents b

let encode_req r = payload_of write_req r

let encode_resp r = payload_of write_resp r

(* -------------------------------- decoding ------------------------- *)

(* Every decoder reads a {!Codec.cursor} over the payload where it lies
   (on both ends of the wire, the connection's receive buffer) and
   copies out only what its result keeps: names, messages, [Compare]
   payloads.  A stamp or lease reply's timestamp is read in place by
   the caller's codec.  [decode_req] and [decode_resp] run the same
   decoders over a string. *)

exception Bad of error

let fail e = raise (Bad e)

let take_byte (c : Codec.cursor) =
  if c.pos >= c.lim then fail Truncated;
  let v = Char.code (Bytes.get c.buf c.pos) in
  c.pos <- c.pos + 1;
  v

let take_uv c =
  match Codec.get_uv c with
  | v ->
    if v < 0 then fail (Malformed "negative varint field");
    v
  | exception Codec.Malformed m -> fail (Malformed m)

(* A length is checked against the bytes left before anything trusts
   it: [pos + len] overflows for a hostile length near [max_int]. *)
let take_len (c : Codec.cursor) =
  let len = take_uv c in
  if len > c.lim - c.pos then fail Truncated;
  len

let take_vstr c = Codec.get_string c (take_len c)

let take_ts codec c =
  let len = take_len c in
  match Codec.get_value codec c ~len with
  | v -> v
  | exception Codec.Malformed m -> fail (Malformed m)

let take_bool c =
  match take_byte c with
  | 0 -> false
  | 1 -> true
  | v -> fail (Malformed (Printf.sprintf "bad bool byte %d" v))

let take_kind c =
  match take_byte c with
  | 0 -> `One_shot
  | 1 -> `Long_lived
  | v -> fail (Malformed (Printf.sprintf "bad kind byte %d" v))

(* A counted list; the count cap bounds what a hostile peer can make us
   allocate before the bytes run out. *)
let take_list c what take_elt =
  let n = take_uv c in
  if n > 1 lsl 16 then fail (Malformed (Printf.sprintf "bad %s count" what));
  List.init n (fun _ -> take_elt c)

(* The version byte, then the opcode. *)
let take_op c =
  let v = take_byte c in
  if v <> version then fail (Bad_version v);
  take_byte c

let take_end (c : Codec.cursor) =
  if c.pos <> c.lim then fail (Malformed "trailing bytes after payload")

let read_req c =
  match
    let op = take_op c in
    let r =
      if op = op_ping then Ping
      else if op = op_get_stamp then Get_stamp
      else if op = op_get_range then Get_range (take_uv c)
      else if op = op_compare then
        let a = take_vstr c in
        let b = take_vstr c in
        Compare { a; b }
      else if op = op_stats then Stats
      else if op = op_stop then Stop
      else fail (Bad_opcode op)
    in
    take_end c;
    r
  with
  | r -> Ok r
  | exception Bad e -> Error e

(* Every reply but [Stamp] and [Range]. *)
let other_body c op =
  if op = op_pong then
    let si_impl = take_vstr c in
    let si_kind = take_kind c in
    let si_n = take_uv c in
    let si_shards = take_uv c in
    let si_codec = take_vstr c in
    Pong { si_impl; si_kind; si_n; si_shards; si_codec }
  else if op = op_cmp then Cmp (take_bool c)
  else if op = op_stats_reply then
    let sr_shards =
      take_list c "shard" (fun c ->
          let ss_served = take_uv c in
          let ss_batches = take_uv c in
          let ss_max_batch = take_uv c in
          { ss_served; ss_batches; ss_max_batch })
    in
    let sr_conns =
      take_list c "conn" (fun c ->
          let cn_slot = take_uv c in
          let cn_conns = take_uv c in
          let cn_requests = take_uv c in
          let cn_stamps = take_uv c in
          let cn_leases = take_uv c in
          let cn_bytes_in = take_uv c in
          let cn_bytes_out = take_uv c in
          { cn_slot; cn_conns; cn_requests; cn_stamps; cn_leases;
            cn_bytes_in; cn_bytes_out })
    in
    let sr_refused = take_uv c in
    Stats_reply { sr_shards; sr_conns; sr_refused }
  else if op = op_stopping then Stopping
  else if op = op_err then Err (take_vstr c)
  else fail (Bad_opcode op)

(* [stamp], [range] and [other] run only once the whole payload has
   checked out, so a malformed reply never reaches them. *)
let read_reply codec ~stamp ~range ~other c =
  match
    let op = take_op c in
    if op = op_stamp then begin
      let pid = take_uv c in
      let call = take_uv c in
      let shard = take_uv c in
      let start_tick = take_uv c in
      let end_tick = take_uv c in
      let ts = take_ts codec c in
      take_end c;
      stamp ~pid ~call ~shard ~start_tick ~end_tick ts
    end
    else if op = op_range then begin
      let pid = take_uv c in
      let call = take_uv c in
      let shard = take_uv c in
      let start_tick = take_uv c in
      let base = take_uv c in
      let count = take_uv c in
      let ts = take_ts codec c in
      take_end c;
      range ~pid ~call ~shard ~start_tick ~base ~count ts
    end
    else begin
      let r = other_body c op in
      take_end c;
      other r
    end
  with
  | r -> Ok r
  | exception Bad e -> Error e

let read_resp c =
  read_reply raw
    ~stamp:(fun ~pid ~call ~shard ~start_tick ~end_tick w_ts ->
        Stamp
          { w_pid = pid; w_call = call; w_shard = shard;
            w_start_tick = start_tick; w_end_tick = end_tick; w_ts })
    ~range:(fun ~pid ~call ~shard ~start_tick ~base ~count g_ts ->
        Range
          { g_pid = pid; g_call = call; g_shard = shard;
            g_start_tick = start_tick; g_base = base; g_count = count; g_ts })
    ~other:Fun.id c

let decode read s =
  match read (Codec.cursor_of_string s) with
  | Ok r -> Ok (version, r)
  | Error e -> Error e

let decode_req s = decode read_req s

let decode_resp s = decode read_resp s

(* Dechunking helper: inspect the 4-byte length prefix of the next frame
   in [buf.[off .. off+avail)].  Pure, shared by {!Conn} and the tests. *)
let frame_length buf ~off ~avail =
  if avail < 4 then `Need_more
  else
    let len = Int32.to_int (Bytes.get_int32_be buf off) in
    if len < 2 then `Error (Malformed (Printf.sprintf "frame length %d" len))
    else if len > max_payload then `Error (Oversized len)
    else `Length len
