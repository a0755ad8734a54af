(** Growable byte buffer for the wire hot path.

    Writers {!reserve} room, store bytes into {!bytes} in place (no
    intermediate strings, no [Int64.t] boxing), and {!advance}.  The
    buffer doubles as a connection's byte queue: [consume] drops bytes
    from the front — the socket accepted them, or a parser took a frame
    — so a partial write under backpressure leaves the tail buffered,
    and a partial read leaves a half frame waiting for the rest.  Once
    capacity has grown to steady state, appending performs zero
    minor-heap allocation.

    [reserve] may compact or reallocate the storage, so positions
    returned by {!offset} and {!reserve} are only valid until the next
    [reserve]. *)

type t

val create : ?cap:int -> unit -> t

val length : t -> int
(** Pending (unconsumed) bytes. *)

val is_empty : t -> bool

val clear : t -> unit

val bytes : t -> Bytes.t
(** The underlying storage; valid bytes live in
    [\[offset t, offset t + length t)].  Invalidated by any append. *)

val offset : t -> int
(** Index of the first pending byte within [bytes t]. *)

val reserve : t -> int -> int
(** [reserve t n] ensures capacity for [n] more bytes and returns the
    append position; write with [Bytes] stores, then [advance t n]. *)

val advance : t -> int -> unit

val consume : t -> int -> unit
(** Drop [n] bytes from the front. *)

val contents : t -> string
(** Copy of the pending bytes (tests and diagnostics). *)
