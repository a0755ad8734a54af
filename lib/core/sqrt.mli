(** The asymptotically space-optimal wait-free timestamp algorithm of
    Section 6 (Algorithms 3–4): [ceil(2 sqrt M)] registers for any system
    performing at most [M] getTS calls.  One-shot timestamps are the case
    [M = n] (Theorem 1.3), matching the lower bound of Theorem 1.2 up to a
    constant factor.

    Registers hold [Bot] or a cell [(seq, rnd)]: a sequence of getTS-ids
    and a round number.  Timestamps are pairs [(rnd, turn)] compared
    lexicographically (Algorithm 3) without shared-memory access.  The
    implementation follows the paper's pseudocode line by line; its scan is
    the double-collect scan of {!Snapshot.Collect}, wait-free here because
    every getTS performs fewer than [m] writes (Lemma 6.14). *)

type id = { pid : int; seq_no : int }
(** A getTS-id "p.k": the [seq_no]-th invocation by process [pid]. *)

type cell = { ids : id list; rnd : int }
(** The paper's register pair [<seq, rnd>]; [ids] is oldest-first and has
    length 1 (invalidation write) or the phase number (phase-start write). *)

type value =
  | Bot
  | Cell of cell

type result = int * int
(** A timestamp [(rnd, turn)]. *)

exception Register_space_exhausted
(** Raised when an execution needs more registers than provisioned, i.e.,
    the total number of getTS calls exceeded the bound [M] (never raised
    otherwise, by Lemma 6.5). *)

val registers_for_calls : int -> int
(** [ceil (2 sqrt M)]: the smallest [m] with [m * m >= 4 * M]. *)

val is_bot : value -> bool

val last_id : id list -> id
(** The paper's [last(seq)]. *)

val pp_value : Format.formatter -> value -> unit

val compare_ts : result -> result -> bool
(** Algorithm 3: lexicographic on [(rnd, turn)]. *)

val order : Intf.order
(** [`Strict_weak], as any lexicographic order. *)

val equal_ts : result -> result -> bool

val pp_ts : Format.formatter -> result -> unit

(** What a getTS does at lines 10–11 when it finds register [j] invalid.
    The paper overwrites only stale invalidations; the other two policies
    exist for the EA ablation (see {!Sqrt_variants} and Section 6.1). *)
type repair =
  | Repair_stale  (** the paper's rule: overwrite iff [R[j].rnd < myrnd] *)
  | Repair_never  (** INCORRECT under concurrency (ablation only) *)
  | Repair_always  (** correct; may perform extra invalidation writes *)

val get_ts :
  ?repair:repair -> m:int -> id:id -> unit -> (value, result) Shm.Prog.t
(** Algorithm 4 for a system with [m] registers (1-based register [j] at
    simulator index [j - 1]).  [repair] defaults to the paper's rule. *)

(** Instantiation for a fixed bound [M] on the total number of getTS calls
    (Section 7: the algorithm generalizes to any fixed M, long-lived). *)
module With_calls (_ : sig
    val total_calls : int
  end) : Intf.S with type value = value and type result = result

(** The one-shot instance of Theorem 1.3: [M = n], [ceil(2 sqrt n)]
    registers. *)
module One_shot : Intf.S with type value = value and type result = result
