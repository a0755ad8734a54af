(** The simple one-shot timestamp algorithm of Section 5 (Algorithms 1–2):
    [ceil(n/2)] registers, each shared by two writer processes and holding
    a value in [{0, 1, 2}].

    getTS by process [p] reads all registers in sequence; at the register
    it shares (register [floor(p/2)]) it adds one; the timestamp is the sum
    of all values observed or ensured.  compare is integer [<].  Wait-free
    (Lemma 5.1); beats the space of {e any} long-lived register
    implementation for [n >= 12]. *)

type value = int

type result = int

val name : string

val kind : [ `One_shot | `Long_lived ]

val num_registers : n:int -> int
(** [ceil (n / 2)]. *)

val init_value : n:int -> value

val program : n:int -> pid:int -> call:int -> (value, result) Shm.Prog.t
(** Rejects [call <> 0]: the object is one-shot. *)

val compare_ts : result -> result -> bool

val order : Intf.order

val equal_ts : result -> result -> bool

val pp_ts : Format.formatter -> result -> unit
