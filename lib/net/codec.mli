(** Compact per-implementation timestamp codecs: the wire form of each
    registered implementation's timestamp universe.

    Each codec is a fixed layout of LEB128 varints that encodes into a
    caller-supplied buffer with zero allocation and decodes with strict
    bounds checks, so the server can parse timestamps from untrusted
    peers.  See DESIGN.md §15 for the layouts. *)

exception Malformed of string

(** A codec as a first-class value — the form the frame hot path
    consumes (no functor application per connection, no closure per
    stamp). *)
type 'r t = {
  c_name : string;  (** wire identity, checked in the handshake *)
  c_size : 'r -> int;
  c_put : Bytes.t -> int -> 'r -> int;
      (** writes exactly [c_size v] bytes, returns new position; never
          allocates *)
  c_get : string -> int -> limit:int -> 'r * int;
      (** strict parse within [\[pos, limit)]; raises {!Malformed} *)
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

(** {2 Varint primitives} (shared with the frame layer; exposed for
    tests) *)

val uv_size : int -> int
(** Encoded size (1–9 bytes) of the int's 63-bit pattern as unsigned
    LEB128; negative ints take 9 bytes. *)

val put_uv : Bytes.t -> int -> int -> int
(** [put_uv b pos v] writes [uv_size v] bytes at [pos] and returns the
    new position. *)

val get_uv : string -> int -> limit:int -> int * int
(** Strict decode within [\[pos, limit)]: at most 9 bytes; raises
    {!Malformed} on truncation or overflow. *)

val max_vector : int
(** Decode-side cap on vector-timestamp components. *)
