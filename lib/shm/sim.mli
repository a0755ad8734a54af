(** Deterministic simulator of an asynchronous shared-memory system.

    A configuration holds the contents of [m] multi-writer multi-reader
    atomic registers and the state of [n] processes, exactly as in Section 2
    of the paper.  Each process is either idle, crashed, or suspended inside
    a method call at its next shared-memory operation.  Stepping a process
    executes exactly one atomic operation (or delivers the response of a
    completed call), mirroring the paper's executions [(C; sigma)].

    Configurations are immutable values: every transition returns a fresh
    configuration and never mutates its input.  This gives speculative
    execution and rollback for free, which the covering-argument adversaries
    rely on ("run q solo from pi_B(C); if it never writes outside R,
    rewind").

    Every {!invoke}, {!step} and {!crash} also reports one telemetry event
    through {!Obs.Hooks} (register read/write/swap with its index,
    invocation, response, crash).  With no sink attached this costs a flag
    load and a branch — nothing is allocated; speculative (later rewound)
    transitions are reported like any other, so attached collectors see the
    work performed, not just the surviving execution. *)

type ('v, 'r) t

type 'v poised =
  | P_idle  (** no method call in progress *)
  | P_crashed
  | P_read of int  (** poised to read the given register *)
  | P_write of int * 'v  (** poised to write: {e covers} that register *)
  | P_swap of int * 'v
      (** poised to swap (a historyless overwrite): also covers *)
  | P_rmw of int
      (** poised on an atomic read-modify-write of the given register
          ({!Prog.Rmw}: compare-and-set, fetch-and-add).  Not historyless,
          so it never covers. *)
  | P_await of int * bool
      (** poised on a guarded read of the given register ({!Prog.Await});
          the flag is whether the guard currently holds.  When it is
          [false] the process is {e blocked}: it is not enabled, {!step}
          raises, and {!runnable} omits it. *)
  | P_respond  (** computation finished; next step delivers the response *)

val create : n:int -> num_regs:int -> init:'v -> ('v, 'r) t
(** [create ~n ~num_regs ~init] is the initial configuration [C0]: all
    processes idle, all registers holding [init]. *)

val of_regs : n:int -> regs:'v array -> ('v, 'r) t
(** Like {!create} with per-register initial values (the array is copied);
    used by composed objects whose register slices have different types. *)

val n : ('v, 'r) t -> int

val num_regs : ('v, 'r) t -> int

val reg : ('v, 'r) t -> int -> 'v
(** Current value of a register. *)

val regs : ('v, 'r) t -> 'v array
(** A fresh copy of the register contents. *)

val poised : ('v, 'r) t -> int -> 'v poised

val covers : ('v, 'r) t -> int -> int option
(** [covers cfg p] is [Some r] when process [p] is poised to write or swap
    register [r] (the paper's "p covers r in C", extended to historyless
    operations as in Section 7), and [None] otherwise. *)

val invoke :
  ('v, 'r) t -> pid:int -> program:(call:int -> ('v, 'r) Prog.t) -> ('v, 'r) t
(** [invoke cfg ~pid ~program] starts the next method call of [pid]:
    [program ~call] receives the 0-based per-process invocation number.
    The invocation event is recorded in the history.  Raises
    [Invalid_argument] if [pid] is not idle. *)

val step : ('v, 'r) t -> int -> ('v, 'r) t
(** [step cfg p] lets process [p] take one step: execute its poised read or
    write, or deliver its pending response.  Raises [Invalid_argument] if
    [p] is idle, crashed, or blocked on an await guard. *)

val crash : ('v, 'r) t -> int -> ('v, 'r) t
(** Crash-stop: the process takes no further steps.  Allowed in any state. *)

val is_quiescent : ('v, 'r) t -> bool
(** No process has a method call in progress (crashed processes that died
    mid-call are {e not} quiescent in the paper's sense, so they count as
    in-progress here and [is_quiescent] is false if any exist). *)

val running : ('v, 'r) t -> int list
(** Processes with a method call in progress, in pid order (including
    processes blocked on an {!Prog.Await} guard; see {!runnable}). *)

val runnable : ('v, 'r) t -> int list
(** {!running} minus the processes blocked on an {!Prog.Await} whose
    guard is currently false (stepping one raises; it becomes runnable
    again the moment another process makes the guard true): the
    processes that can take a step now.
    Schedulers and the exploration engine must draw enabled steps from
    this list, not from {!running}. *)

val idle : ('v, 'r) t -> int list
(** Processes with no call in progress and not crashed, in pid order. *)

val never_invoked : ('v, 'r) t -> int list
(** The paper's [idle(C)]: processes still in their initial state. *)

val calls : ('v, 'r) t -> int -> int
(** Number of invocations started by a process. *)

val run_solo : fuel:int -> ('v, 'r) t -> int -> ('v, 'r) t option
(** [run_solo ~fuel cfg p] steps [p] alone until its current call responds.
    [None] if the fuel is exhausted first (non-termination witness) or if
    [p] blocks on an await guard (solo, nobody can satisfy it).  If [p] is
    idle, returns the configuration unchanged. *)

val block_write : ('v, 'r) t -> int list -> ('v, 'r) t
(** [block_write cfg ps] performs the paper's block-write [pi_P]: each
    process of [ps] takes exactly one step, in the given order.  Raises
    [Invalid_argument] if some process is not poised to write. *)

val results : ('v, 'r) t -> (History.op * 'r) list
(** All completed method calls with their results, in response order. *)

val result : ('v, 'r) t -> History.op -> 'r option

val hist : ('v, 'r) t -> History.t

val steps : ('v, 'r) t -> int
(** Total number of steps taken so far. *)

val writes : ('v, 'r) t -> int
(** Total number of write steps taken so far. *)

val written_set : ('v, 'r) t -> int list
(** Registers that have ever been written, ascending. *)

val read_set : ('v, 'r) t -> int list
(** Registers that have ever been read, ascending. *)

val touched_count : ('v, 'r) t -> int
(** Number of distinct registers ever read or written: the space actually
    used by the execution. *)

val fingerprint : ('v, 'r) t -> int
(** A hash identifying the configuration up to future behaviour and
    happens-before-observable past: register contents, per-process status
    and call counts, the identity of every suspended continuation (derived
    incrementally from the call number and the values its operations
    returned — programs are deterministic, so this pins down the closure),
    and the {e happens-before abstraction} of the history: the multiset of
    operations with their invocation epochs, response indices and result
    values.  Two configurations with equal fingerprints have equal
    registers, process states, results, response orders and happens-before
    relations; they may differ in how {e concurrent invocations} were
    interleaved, which no hb-based checker can observe — the basis of state
    deduplication in {!Explore} (whose invariant/leaf checks must therefore
    not inspect the literal event order of {!hist}).  Deliberately {e not}
    included: the step and write counters and the touched-register
    telemetry, which depend on the path taken rather than on future
    behaviour.  The function is allocation-free (pinned by test), so it can
    run on the DFS hot path.  Equality is up to hash collisions (62-bit
    fingerprints; see DESIGN.md for the collision budget). *)

(** {2 Process-symmetry quotient}

    When several processes run structurally identical programs
    ({!Schedule.symmetry_classes}), configurations that differ only by a
    permutation of such processes are isomorphic: the permuted process
    states tell the same story about the same registers (identical programs
    address identical register indices, so no register remapping is
    involved).  A {!canonicalizer} hashes the orbit representative instead
    of the configuration itself, letting {!Explore} merge the whole orbit
    into one visited-set entry. *)

type canonicalizer
(** Preallocated scratch for {!canonical_fingerprint}; not thread-safe —
    use one per domain. *)

val canonicalizer : classes:int array -> canonicalizer
(** [canonicalizer ~classes] with [classes.(pid)] the smallest pid whose
    programs are structurally identical to [pid]'s (so [classes.(pid) <=
    pid] and class representatives are fixpoints); raises
    [Invalid_argument] on malformed arrays. *)

val canonical_fingerprint : canonicalizer -> ('v, 'r) t -> int
(** The fingerprint of the configuration's orbit under permutations of
    interchangeable processes: per-process summaries are sorted within each
    class, so all [prod |class_i|!] permuted variants hash equal.  Because
    the canonical form is only used as a {e deduplication key} — the engine
    always explores the concrete configuration it actually reached —
    counterexample schedules replay verbatim; no inverse-permutation
    mapping of reported traces is ever needed (the mapping is the
    identity). *)

val canonical_perm : canonicalizer -> int array
(** The permutation (pid -> canonical slot) chosen by the most recent
    {!canonical_fingerprint} call on this canonicalizer — the identity for
    trivial class arrays.  {!Explore} uses it to map sleep-set masks into
    canonical coordinates so dominance comparisons across an orbit are
    sound.  The array is owned by the canonicalizer and overwritten by the
    next call; read it immediately. *)
