(** Minimal JSON values: construction, serialization and parsing.

    Shared by every sink of the instrumentation layer (the Chrome trace
    writer, the metrics JSONL writer, the benchmark emitters) and by the
    tests and CLI that validate their output.  Deliberately tiny — no
    external dependency, no streaming — because every document we emit fits
    comfortably in memory. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite floats serialize as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
(** Compact (single-line) serialization. *)

val to_string : t -> string

val to_channel : out_channel -> t -> unit

val pretty_to_string : t -> string
(** Indented serialization, for files meant to be read by humans. *)

val of_string : string -> (t, string) result
(** Parses one JSON document (surrounding whitespace allowed).  Errors
    carry a character offset.  Numbers without [.], [e] or [E] parse as
    [Int]; everything else as [Float]. *)

val of_lines : string -> (t list, string) result
(** Parses JSONL: one document per non-empty line. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)
