(** An (n-1)-register long-lived unbounded timestamp object in the spirit
    of the Ellen–Fatourou–Ruppert upper bound (a reconstruction; see
    DESIGN.md).

    Processes [0 .. n-2] own one register each and issue [Even] timestamps
    (Lamport-style max-plus-one); process [n-1] owns no register and issues
    [Odd] timestamps that sit strictly between consecutive [Even] values,
    disambiguated by its local call counter.  The timestamp universe is
    therefore {e not} nowhere dense — exactly the property EFR show is
    necessary to beat [n] registers. *)

type value = int

type result =
  | Even of int  (** issued by a register-owning process after its write *)
  | Odd of int * int
      (** issued by the registerless process: (max seen, local counter) *)

val name : string

val kind : [ `One_shot | `Long_lived ]

val num_registers : n:int -> int
(** Exactly [n - 1]. *)

val init_value : n:int -> value

val program : n:int -> pid:int -> call:int -> (value, result) Shm.Prog.t

val height : result -> int
(** Numeric height: [Even k] at [2k], [Odd (m, _)] at [2m + 1]. *)

val compare_ts : result -> result -> bool

val order : Intf.order

val equal_ts : result -> result -> bool

val pp_ts : Format.formatter -> result -> unit
