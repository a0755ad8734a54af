(** The Section-5 simple one-shot algorithm over {e swap} (historyless)
    objects instead of read/write registers — the setting of the Section-7
    remark that the one-shot lower bound extends to historyless objects.

    Identical interface, space ([ceil(n/2)] registers) and timestamps as
    {!Simple_oneshot}; the shared increment is performed with one or two
    swaps (see the implementation comment for the race analysis). *)

type value = int

type result = int

val name : string

val kind : [ `One_shot | `Long_lived ]

val num_registers : n:int -> int

val init_value : n:int -> value

val program : n:int -> pid:int -> call:int -> (value, result) Shm.Prog.t

val compare_ts : result -> result -> bool

val order : Intf.order

val equal_ts : result -> result -> bool

val pp_ts : Format.formatter -> result -> unit
