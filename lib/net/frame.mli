(** Binary wire format for the timestamp service.

    Every frame is [u32 length ++ payload] (length big-endian, payload
    bytes only); a payload is [u8 version ++ u8 opcode ++ body].  Body
    integers are unsigned LEB128 varints, strings (timestamps included,
    as {!Codec} payloads) are varint-length-prefixed, and bools and
    kinds are one byte.  Every writer computes a frame's length before
    appending its first byte.  See DESIGN.md §14–§15 for the frame
    table. *)

val version : int
(** The protocol version, 2: the only value the version byte may
    carry. *)

val max_payload : int
(** Hard cap on payload size (16 MiB); longer frames are rejected as
    {!Oversized} without buffering. *)

val max_lease : int
(** Largest [Get_range] a server will grant. *)

type kind = [ `One_shot | `Long_lived ]

type req =
  | Ping  (** handshake; answered with {!Pong} *)
  | Get_stamp  (** one getTS, run on the server's I/O loop *)
  | Get_range of int  (** epoch-range lease: anchor getTS + [n] ticks *)
  | Compare of { a : string; b : string }
      (** order two {!Codec} timestamp payloads server-side *)
  | Stats
  | Stop  (** ask the server to begin a graceful shutdown *)

type wire_stamp = {
  w_pid : int;
  w_call : int;
  w_shard : int;
  w_start_tick : int;
  w_end_tick : int;
  w_ts : string;  (** {!Codec} payload *)
}

(** A granted lease: the anchor operation's identity/start/timestamp,
    shared by every stamp minted from the lease, plus [g_count] reserved
    end ticks starting at [g_base]. *)
type wire_range = {
  g_pid : int;
  g_call : int;
  g_shard : int;
  g_start_tick : int;
  g_base : int;
  g_count : int;
  g_ts : string;
}

type server_info = {
  si_impl : string;
  si_kind : kind;
  si_n : int;
  si_shards : int;
  si_codec : string;  (** {!Codec.name} of the stamp payloads *)
}

(** One per serving shard; [Net.Server] reports one per I/O loop:
    getTS programs run, parse passes that ran at least one, and the most
    programs in one pass. *)
type shard_stat = { ss_served : int; ss_batches : int; ss_max_batch : int }

type conn_stat = {
  cn_slot : int;
  cn_conns : int;  (** live connections currently mapped to this slot *)
  cn_requests : int;
  cn_stamps : int;
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
          (** connections closed at accept: their fd was at or above
              [FD_SETSIZE], which [select] cannot watch *)
    }
  | Stopping
  | Err of string

type error =
  | Bad_version of int
  | Bad_opcode of int
  | Truncated
  | Oversized of int
  | Malformed of string

val error_to_string : error -> string

val pp_error : Format.formatter -> error -> unit

val encode_req : req -> string
(** Payload bytes (no length prefix) — the exact bytes {!decode_req}
    accepts.  Mainly for tests; senders use {!write_req}. *)

val encode_resp : resp -> string

val decode_req : string -> (int * req, error) result
(** Strict decode of one payload, paired with its version byte (always
    {!version}).  Never raises: any byte string yields [Ok] or
    [Error]. *)

val decode_resp : string -> (int * resp, error) result

val write_req : Buf.t -> req -> unit
(** Appends the complete frame (length prefix + payload).  Raises
    [Invalid_argument] — before appending anything — on a negative
    integer field or a payload over {!max_payload}. *)

val write_resp : Buf.t -> resp -> unit

val write_stamp_v2 :
  Buf.t -> 'r Codec.t -> pid:int -> call:int -> shard:int ->
  start_tick:int -> end_tick:int -> 'r -> unit
(** Hot-path stamp reply, byte-identical to [write_resp] of the
    matching {!Stamp}: encodes header, varint fields, and the codec
    payload straight into the send buffer — zero minor-heap words per
    stamp at steady state (pinned by tests and E19). *)

val write_range_v2 :
  Buf.t -> 'r Codec.t -> pid:int -> call:int -> shard:int ->
  start_tick:int -> base:int -> count:int -> 'r -> unit

val frame_length :
  Bytes.t -> off:int -> avail:int ->
  [ `Need_more | `Length of int | `Error of error ]
(** Inspects the next frame's 4-byte length prefix in
    [buf.[off .. off+avail)]: [`Need_more] below 4 available bytes,
    [`Error] for nonsense (< 2, i.e. too short for version+opcode) or
    oversized lengths, else the payload length. *)
