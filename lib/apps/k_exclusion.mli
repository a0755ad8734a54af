(** k-exclusion from timestamp objects (Fischer–Lynch–Burns–Borodin 1989;
    Afek et al. 1994, both cited in the paper's introduction): at most [k]
    processes in the critical section, first-come-first-served.  With
    [k = 1] this is exactly {!Ts_lock}.

    Instrumentation uses per-process single-writer critical-section flags
    (a shared counter would race with itself once [k >= 2] sessions are
    legally concurrent): a session reports how many other flags it saw
    raised while inside (< k), and {!Make.occupants} exposes the exact
    external occupancy of a configuration for invariant checking. *)

module Make (T : Timestamp.Intf.S) : sig
  type value =
    | Ts of T.value
    | Ann of T.result Ts_lock.announce
    | Flag of bool  (** critical-section flag, single-writer *)

  type result = {
    ts : T.result;
    others_in_cs : int;
        (** distinct other flags observed raised while inside.  Each single
            observation is a sound concurrency witness, but the count may
            exceed [k - 1] for [k >= 2] because the observations happen at
            different instants; use {!occupants} for the safety invariant. *)
  }

  val name : string

  val kind : [ `One_shot | `Long_lived ]

  val ts_regs : n:int -> int

  val ann_reg : n:int -> int -> int

  val num_registers : n:int -> int

  val init_regs : n:int -> value array

  val create : n:int -> (value, result) Shm.Sim.t

  val occupants : n:int -> (value, result) Shm.Sim.t -> int
  (** Raised flags in a configuration: the external occupancy, which must
      never exceed [k]. *)

  val precedes : T.result * int -> T.result * int -> bool

  val program :
    k:int -> n:int -> pid:int -> call:int -> (value, result) Shm.Prog.t

  val session_ok : k:int -> result -> bool
  (** Sanity of a session's observations: for [k = 1] any observed flag is
      a mutual-exclusion violation; for [k >= 2] per-session counts are
      unbounded (see {!type-result}) and only basic sanity is checked. *)

  end
