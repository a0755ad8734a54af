(** Buffered, byte-counting socket connections and address parsing.

    Reads are frame-at-a-time on top of a receive {!Buf}: one [read(2)]
    often delivers several pipelined frames, and the parser decodes them
    all, each where it lies, before touching the socket again.  Writes
    accumulate in a send {!Buf} until {!flush} — a pipelining sender
    frames a whole burst and pays one [write(2)].  Blocking ({!recv}, {!flush}) and non-blocking
    ({!try_refill}, {!try_flush}) forms share the same buffers. *)

type addr = Unix_path of string | Tcp of { host : string; port : int }

val addr_to_string : addr -> string
(** ["unix:PATH"] / ["tcp:HOST:PORT"] — the forms {!parse_addr}
    accepts. *)

val parse_addr : string -> addr option
(** Accepts ["unix:PATH"], ["tcp:HOST:PORT"], bare ["HOST:PORT"], and
    bare filesystem paths.  A TCP port is 0–65535; a server bound to
    port 0 gets a free port from the kernel. *)

val sockaddr_of : addr -> Unix.sockaddr
(** Resolves [Tcp] hosts (dotted quad or name); raises [Failure] when
    resolution fails. *)

val domain_of : addr -> Unix.socket_domain

type t

val create : Unix.file_descr -> t
(** The first [create] in a process sets [SIGPIPE] to ignore, so writes
    to a dead peer surface as [Unix.EPIPE] instead of killing the
    process. *)

val fd : t -> Unix.file_descr

val bytes_in : t -> int

val bytes_out : t -> int

val send_buffer : t -> Buf.t
(** Frame outgoing messages into this with {!Frame.write_req} /
    {!Frame.write_resp}, then {!flush} (or let a reactor loop drain it
    with {!try_flush}). *)

val pending_out : t -> int
(** Bytes framed but not yet accepted by the socket. *)

val set_nonblock : t -> unit

val flush : t -> unit
(** Writes the whole send buffer out (blocking) and clears it.  Raises
    [Unix.Unix_error] if the peer is gone. *)

val try_flush : t -> [ `Flushed | `Partial | `Closed ]
(** One non-blocking write attempt: [`Flushed] when nothing remains
    pending, [`Partial] when the socket would block (write when it
    polls writable), [`Closed] when the peer is gone. *)

val try_refill : t -> [ `Data | `Would_block | `Eof ]
(** One non-blocking read into the receive buffer; decode complete
    frames afterwards with {!buffered_frame}. *)

val buffered_frame :
  t -> (Codec.cursor -> 'a) -> ('a, [> `Frame of Frame.error ]) result option
(** If a complete frame is already in the receive buffer, hands its
    payload to the decoder as a cursor over the buffer itself (no copy),
    then consumes the frame, also when the decoder raises.  [None] when
    more bytes are needed; nothing touches the socket.

    The no-held-position rule: the cursor, and any position into the
    buffer, is valid only until the decoder returns.  The next read may
    compact or grow the buffer ({!Buf.reserve}), so a decoder copies
    whatever bytes it keeps. *)

val recv :
  t -> (Codec.cursor -> 'a) -> ('a, [ `Eof | `Frame of Frame.error ]) result
(** {!buffered_frame}, blocking until a frame is complete.  [`Eof] on a
    clean close at a frame boundary; [`Frame Truncated] when the peer
    dies mid-frame; [`Frame] errors for bad length prefixes. *)

val close : t -> unit
(** Idempotent. *)
