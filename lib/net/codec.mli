(** Compact per-implementation timestamp codecs: the wire form of each
    registered implementation's timestamp universe.

    Each codec is a fixed layout of LEB128 varints that encodes into a
    caller-supplied buffer with zero allocation and decodes in place,
    from a {!cursor} over the bytes where they arrived, with strict
    bounds checks, so the server can parse timestamps from untrusted
    peers.  See DESIGN.md §15 for the layouts. *)

exception Malformed of string

(** {2 Cursors} *)

type cursor = { mutable buf : Bytes.t; mutable pos : int; mutable lim : int }
(** A byte slice being read: [buf.\[pos .. lim)] is what is left.  Reads
    advance [pos] and never pass [lim]; a read that would raises
    {!Malformed}.  Nothing writes through a cursor.  Build one with
    {!cursor} or point it with {!reset}, which check that the slice lies
    inside [buf]; decoders read it in place and, when they return, the
    bytes may move. *)

val cursor : Bytes.t -> off:int -> len:int -> cursor
(** The slice [b.[off .. off+len)].  Raises [Invalid_argument] when it
    is not inside [b]. *)

val cursor_of_string : string -> cursor
(** The whole string, read in place. *)

val reset : cursor -> Bytes.t -> off:int -> len:int -> unit
(** Points the cursor at a new slice, as {!cursor} would: a reader that
    decodes many slices keeps one cursor and allocates none per
    slice. *)

val get_string : cursor -> int -> string
(** [get_string c n] copies the next [n] bytes out. *)

(** A codec as a first-class value — the form the frame hot path
    consumes (no functor application per connection, no closure per
    stamp). *)
type 'r t = {
  c_name : string;  (** wire identity, checked in the handshake *)
  c_size : 'r -> int;
  c_put : Bytes.t -> int -> 'r -> int;
      (** writes exactly [c_size v] bytes, returns new position; never
          allocates *)
  c_get : cursor -> 'r;
      (** strict parse from the cursor's position, advancing it; raises
          {!Malformed}, and allocates nothing but the value *)
}

val name : 'r t -> string

val for_impl : (module Timestamp.Intf.S with type result = 'r) -> 'r t
(** The codec for a registered implementation, keyed by [T.name].
    Raises [Invalid_argument] naming the implementation when it has no
    wire layout (e.g. an unregistered fuzz mutant). *)

val encode : 'r t -> 'r -> string
(** One value as a whole payload: what {!decode_exn} reads back. *)

val decode_exn : 'r t -> string -> 'r
(** Decode a whole payload: one value, no trailing bytes.
    Raises {!Malformed}. *)

val get_value : 'r t -> cursor -> len:int -> 'r
(** The next [len] bytes as one value, read in place: the codec may not
    read past them and must consume them all.  Raises {!Malformed}. *)

(** {2 Varint primitives} (shared with the frame layer; exposed for
    tests) *)

val uv_size : int -> int
(** Encoded size (1–9 bytes) of the int's 63-bit pattern as unsigned
    LEB128; negative ints take 9 bytes. *)

val put_uv : Bytes.t -> int -> int -> int
(** [put_uv b pos v] writes [uv_size v] bytes at [pos] and returns the
    new position. *)

val get_uv : cursor -> int
(** Strict decode at the cursor: at most 9 bytes; raises {!Malformed}
    on truncation or overflow. *)

val max_vector : int
(** Decode-side cap on vector-timestamp components. *)
