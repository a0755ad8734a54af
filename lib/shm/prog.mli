(** Programs over a shared array of atomic registers, as a free monad.

    A value of type [('v, 'a) t] is a process-local program that interacts
    with shared memory only through atomic reads and writes of registers
    holding values of type ['v], and eventually returns a result of type
    ['a].  A suspended program is always poised at its next shared-memory
    operation, which makes the covering notion of the paper directly
    observable: a program of the form [Write (r, _, _)] {e covers} register
    [r] in the sense of Helmi et al., Section 2.

    The representation is exposed so that schedulers and adversaries can
    pattern-match on the poised operation.  Continuations must be pure:
    configurations are copied structurally during speculative executions, so
    any hidden mutable state inside a continuation would break rollback. *)

type ('v, 'a) t =
  | Done of 'a  (** the method call is ready to respond with a result *)
  | Read of int * ('v -> ('v, 'a) t)
      (** poised to atomically read the given register *)
  | Write of int * 'v * (unit -> ('v, 'a) t)
      (** poised to atomically write the given value to the given register *)
  | Swap of int * 'v * ('v -> ('v, 'a) t)
      (** poised to atomically swap: store the value, return the old one.
          Swap is {e historyless} (the stored value does not depend on the
          old contents), so the paper's one-shot lower bound still applies
          (Section 7); a poised swap covers its register just like a poised
          write. *)
  | Rmw of int * ('v -> 'v) * ('v -> ('v, 'a) t)
      (** poised to atomically read-modify-write: replace the contents [v]
          with [u v] and continue with the old [v].  This models the
          compare-and-set and fetch-and-add primitives of the serving layer
          (DESIGN.md §13); unlike {!Swap} it is {e not} historyless — the
          stored value depends on the old contents — so the paper's covering
          machinery never treats it as covering ({!Sim.covers} is [None]).
          The update function must be pure: it may run several times during
          speculative exploration. *)
  | Await of int * ('v -> bool) * ('v -> ('v, 'a) t)
      (** poised on a {e guarded read}: the process is blocked — not
          enabled — until the guard holds of the register's contents, at
          which point one step reads the value (guard re-checked atomically
          with the read).  This is the model-level rendering of a real
          spin/futex wait: modelling the spin as repeated reads would give
          every poll a distinct continuation signature and blow up the
          explored state space, whereas a blocked process contributes no
          transitions and a leaf with a blocked process fails quiescence —
          turning lost-wakeup bugs into leaf-check counterexamples.  The
          guard must be pure. *)

val return : 'a -> ('v, 'a) t

val bind : ('v, 'a) t -> ('a -> ('v, 'b) t) -> ('v, 'b) t

val map : ('a -> 'b) -> ('v, 'a) t -> ('v, 'b) t

val read : int -> ('v, 'v) t
(** [read r] is the program that reads register [r] and returns its value. *)

val write : int -> 'v -> ('v, unit) t
(** [write r v] is the program that writes [v] to register [r]. *)

val swap : int -> 'v -> ('v, 'v) t
(** [swap r v] atomically stores [v] in register [r] and returns the
    previous contents (a historyless primitive; see Section 7 of the
    paper). *)

val rmw : int -> ('v -> 'v) -> ('v, 'v) t
(** [rmw r u] atomically replaces the contents [v] of register [r] with
    [u v] and returns the old [v].  [u] must be pure. *)

val cas : ?eq:('v -> 'v -> bool) -> int -> expect:'v -> desired:'v
  -> ('v, bool) t
(** [cas r ~expect ~desired] is the compare-and-set derived from {!rmw}:
    atomically, if the contents equal [expect] (per [eq], default [(=)]),
    store [desired] and return [true]; otherwise leave the register
    unchanged and return [false]. *)

val await : int -> ('v -> bool) -> ('v, 'v) t
(** [await r g] blocks until register [r] satisfies [g], then returns its
    contents.  The guard re-check and the read are one atomic step; while
    the guard is false the process is not enabled (see {!type:t}). *)

module Syntax : sig
  val ( let* ) : ('v, 'a) t -> ('a -> ('v, 'b) t) -> ('v, 'b) t
  val ( let+ ) : ('v, 'a) t -> ('a -> 'b) -> ('v, 'b) t
end

(** {2 Cost model}

    [bind p f] rebuilds every node of [p] on the way to [p]'s result: each
    continuation of [p] is wrapped in one that re-applies [bind].  A
    program of [k] operations nested under [d] binds therefore costs
    O(k·d) allocations and closure calls to run, not O(k).  Loops over a
    register range should not return their result through a bind: use
    {!fold_reads}, or recurse inside the continuation of each operation so
    that the next one is built in place.  {!fold_range} and {!iter_range}
    pay one bind per element and suit short bodies off the hot path. *)

val fold_range : lo:int -> hi:int -> init:'acc
  -> ('acc -> int -> ('v, 'acc) t) -> ('v, 'acc) t
(** [fold_range ~lo ~hi ~init f] runs [f acc i] for [i = lo, lo+1, ..., hi]
    sequentially, threading the accumulator.  Empty when [hi < lo]. *)

val iter_range : lo:int -> hi:int -> (int -> ('v, unit) t) -> ('v, unit) t

val fold_reads : lo:int -> hi:int -> init:'acc -> ('acc -> 'v -> 'acc)
  -> ('acc -> ('v, 'a) t) -> ('v, 'a) t
(** [fold_reads ~lo ~hi ~init f k] reads registers [lo, lo+1, ..., hi] in
    increasing order, folds each value into the accumulator with [f], and
    continues with [k acc].  Each read node's continuation builds the next
    read directly and the last one calls [k], so the range costs one node
    per register and the code that consumes the result rebuilds none of
    them, as a [bind] would.  Empty when [hi < lo], in which case it is
    [k init].  [f] must be pure: like every continuation it may run again
    when a configuration is replayed. *)

val map_reg : (int -> int) -> ('v, 'a) t -> ('v, 'a) t
(** [map_reg f p] renames every register index [r] of [p] to [f r].  Used to
    give a sub-object a disjoint slice of a larger register array. *)

val embed : inj:('v -> 'w) -> prj:('w -> 'v) -> ('v, 'a) t -> ('w, 'a) t
(** [embed ~inj ~prj p] re-types the register contents of [p]: writes are
    injected with [inj] and reads are projected with [prj].  [prj] may raise
    if the register holds a foreign value; composed objects must partition
    the register space with {!map_reg} so that this cannot happen. *)

val structural_key : ('v, 'a) t -> int * int
(** A pair of independently seeded structural hashes of the program tree,
    closure environments included.  Two programs with equal keys are
    structurally the same program — same shape, same captured values, same
    code — up to a double-hash collision (~2^-60 per pair), which is the
    same trust level as fingerprint-based state deduplication.  This is the
    primitive behind process-symmetry detection ({!Schedule.symmetry_classes}):
    processes whose programs key equal are interchangeable.  Keys depend on
    code addresses, so they are only comparable within one process run;
    never persist them. *)

val run_pure : regs:'v array -> ('v, 'a) t -> 'a * int
(** [run_pure ~regs p] executes [p] to completion, solo, against the given
    register array (mutating it in place) and returns the result together
    with the number of shared-memory operations performed.  This is the
    sequential reference interpreter, useful for unit tests.  An {!Await}
    whose guard is false raises [Invalid_argument]: solo, nobody can ever
    satisfy it.

    This is also the storage seam: a program never touches registers except
    through an interpreter, so the representation of a register is entirely
    the interpreter's choice — a plain ['v array] here, immutable
    configurations in {!Sim}, and one ['v Atomic.t] per register in
    [Multicore.Exec] (DESIGN.md §10). *)
