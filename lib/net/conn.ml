(* Buffered, byte-counting socket connection: frame-at-a-time reads on
   top of a receive {!Buf} (a single read(2) often delivers several
   pipelined frames — the parser decodes them all where they lie before
   touching the socket again), and a send {!Buf} flushed once per batch
   of frames. *)

type addr = Unix_path of string | Tcp of { host : string; port : int }

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port

let parse_addr s =
  let tcp rest =
    match String.rindex_opt rest ':' with
    | None -> None
    | Some i ->
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      (match int_of_string_opt port with
       | Some port when port >= 0 && port < 65536 && host <> "" ->
         Some (Tcp { host; port })
       | _ -> None)
  in
  if s = "" then None
  else
    match String.index_opt s ':' with
    | Some 4 when String.sub s 0 4 = "unix" ->
      let p = String.sub s 5 (String.length s - 5) in
      if p = "" then None else Some (Unix_path p)
    | Some 3 when String.sub s 0 3 = "tcp" ->
      tcp (String.sub s 4 (String.length s - 4))
    | Some _ -> tcp s  (* bare host:port *)
    | None -> Some (Unix_path s)  (* bare filesystem path *)

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp { host; port } ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ ->
        (try (Unix.gethostbyname host).Unix.h_addr_list.(0)
         with Not_found | Invalid_argument _ ->
           failwith (Printf.sprintf "cannot resolve host %S" host))
    in
    Unix.ADDR_INET (inet, port)

let domain_of = function
  | Unix_path _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

type t = {
  fd : Unix.file_descr;
  rbuf : Buf.t;  (* received, not yet parsed *)
  rcur : Codec.cursor;  (* reset over each frame handed to a decoder *)
  wbuf : Buf.t;  (* framed, not yet written *)
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable closed : bool;
}

(* A peer that vanishes between our poll and our write delivers SIGPIPE,
   whose default disposition kills the process; every socket user wants
   the EPIPE error instead, so the first connection turns the signal
   off, process-wide (no-op on platforms without it). *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let create fd =
  Lazy.force ignore_sigpipe;
  { fd;
    rbuf = Buf.create ~cap:8192 ();
    rcur = Codec.cursor Bytes.empty ~off:0 ~len:0;
    wbuf = Buf.create ~cap:8192 ();
    bytes_in = 0;
    bytes_out = 0;
    closed = false }

let fd t = t.fd

let bytes_in t = t.bytes_in

let bytes_out t = t.bytes_out

let send_buffer t = t.wbuf

let pending_out t = Buf.length t.wbuf

let set_nonblock t = Unix.set_nonblock t.fd

(* One write(2) of the pending output; [Unix_error]s propagate. *)
let write_some t =
  let n =
    Unix.write t.fd (Buf.bytes t.wbuf) (Buf.offset t.wbuf) (Buf.length t.wbuf)
  in
  Buf.consume t.wbuf n;
  t.bytes_out <- t.bytes_out + n

let flush t =
  while not (Buf.is_empty t.wbuf) do
    write_some t
  done

(* One non-blocking write attempt against the pending output. *)
let try_flush t =
  if Buf.is_empty t.wbuf then `Flushed
  else
    match write_some t with
    | () -> if Buf.is_empty t.wbuf then `Flushed else `Partial
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR),
                                 _, _) ->
      `Partial
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF),
                                 _, _) ->
      `Closed

(* One read(2) into the receive buffer's free space; [Unix_error]s
   propagate to the caller. *)
let read_some t =
  let pos = Buf.reserve t.rbuf 4096 in
  let b = Buf.bytes t.rbuf in
  let n = Unix.read t.fd b pos (Bytes.length b - pos) in
  Buf.advance t.rbuf n;
  t.bytes_in <- t.bytes_in + n;
  n

(* One non-blocking read(2) for reactor loops. *)
let try_refill t =
  match read_some t with
  | 0 -> `Eof
  | _ -> `Data
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR),
                               _, _) ->
    `Would_block
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF),
                               _, _) ->
    `Eof

(* Decodes the complete [len]-byte frame at the front of the receive
   buffer where it lies, then consumes it (also when [decode] raises).
   Nothing between the reset and the consume touches the receive
   buffer, so the cursor's position cannot go stale. *)
let decode_frame t len decode =
  let b = t.rbuf in
  Codec.reset t.rcur (Buf.bytes b) ~off:(Buf.offset b + 4) ~len;
  match decode t.rcur with
  | v ->
    Buf.consume b (4 + len);
    v
  | exception e ->
    Buf.consume b (4 + len);
    raise e

let next_length t =
  let b = t.rbuf in
  match
    Frame.frame_length (Buf.bytes b) ~off:(Buf.offset b) ~avail:(Buf.length b)
  with
  | `Length len when Buf.length b - 4 < len -> `Need_more
  | r -> r

let buffered_frame t decode =
  match next_length t with
  | `Length len -> Some (Ok (decode_frame t len decode))
  | `Need_more -> None
  | `Error e -> Some (Error (`Frame e))

(* Blocking: a frame header promising more than fits is caught by
   [frame_length] before we ever try to buffer it. *)
let rec recv t decode =
  match next_length t with
  | `Length len -> Ok (decode_frame t len decode)
  | `Error e -> Error (`Frame e)
  | `Need_more ->
    let n =
      try read_some t
      with
      | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
        0
    in
    if n > 0 then recv t decode
    else if Buf.is_empty t.rbuf then Error `Eof
    else Error (`Frame Frame.Truncated)

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.fd with Unix.Unix_error _ -> ())
  end
