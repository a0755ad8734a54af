(** Vector timestamps as a long-lived timestamp object: [n] single-writer
    counters; getTS increments the caller's counter and collects all into a
    vector; compare is strict pointwise dominance.

    The partial order is permitted by the paper's weak specification
    (concurrent timestamps may be incomparable); this is the shared-memory
    counterpart of the Fidge/Mattern vector clocks in [Clocks]. *)

type value = int

type result = int array

val name : string

val kind : [ `One_shot | `Long_lived ]

val num_registers : n:int -> int
(** Exactly [n]. *)

val init_value : n:int -> value

val program : n:int -> pid:int -> call:int -> (value, result) Shm.Prog.t

val compare_ts : result -> result -> bool
(** Strict pointwise dominance: allocation-free, and done at the first
    component of the left vector above the right one's.  Raises
    [Invalid_argument] on vectors of different lengths.
    {!Snapshot_ts.compare_ts} is this function. *)

val order : Intf.order
(** [`Strict_partial]: strict dominance is irreflexive and transitive,
    but its incomparability is not transitive ([[1,0]] and [[2,0]] are
    both incomparable with [[0,1]], yet ordered). *)

val equal_ts : result -> result -> bool

val pp_ts : Format.formatter -> result -> unit
