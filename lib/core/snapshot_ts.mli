(** Vector timestamps over the wait-free atomic snapshot
    ({!Snapshot.Wsnapshot}): like {!Vector_ts}, but the collect is replaced
    by an atomic scan, so any two timestamps from non-overlapping calls are
    strictly ordered and concurrent ones are totally ordered up to
    simultaneity (snapshot scans form a chain). *)

type value = int Snapshot.Wsnapshot.cell

type result = int array

val name : string

val kind : [ `One_shot | `Long_lived ]

val num_registers : n:int -> int
(** Exactly [n]. *)

val init_value : n:int -> value

val program : n:int -> pid:int -> call:int -> (value, result) Shm.Prog.t

val compare_ts : result -> result -> bool
(** Strict pointwise dominance: {!Vector_ts.compare_ts}. *)

val order : Intf.order
(** [`Strict_partial]: strict pointwise dominance is irreflexive and
    transitive. *)

val equal_ts : result -> result -> bool

val pp_ts : Format.formatter -> result -> unit
