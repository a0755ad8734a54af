(** The classic long-lived unbounded timestamp object: [n] single-writer
    integer registers; getTS reads all, writes [max + 1] to its own and
    returns it; compare is [<].

    Static and nowhere-dense (integers), hence space-optimal in that class
    by Ellen–Fatourou–Ruppert: [n] registers are necessary.  This is the
    baseline the long-lived experiments (E1) attack. *)

type value = int

type result = int

val name : string

val kind : [ `One_shot | `Long_lived ]

val num_registers : n:int -> int
(** Exactly [n]. *)

val init_value : n:int -> value

val program : n:int -> pid:int -> call:int -> (value, result) Shm.Prog.t

val compare_ts : result -> result -> bool

val order : Intf.order

val equal_ts : result -> result -> bool

val pp_ts : Format.formatter -> result -> unit
