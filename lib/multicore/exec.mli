(** Interpreter of shared-memory programs over real OCaml 5 atomics.

    The same [('v, 'a) Shm.Prog.t] values that run under the deterministic
    simulator execute here against real atomic registers, with true
    parallelism across domains.  OCaml's [Atomic.t] provides sequentially
    consistent atomic registers — exactly the paper's model.  Each
    register is one ['v Atomic.t] (DESIGN.md §10). *)

val make_regs : num:int -> init:'v -> 'v Atomic.t array

val run : regs:'v Atomic.t array -> ('v, 'a) Shm.Prog.t -> 'a
(** Executes the program to completion against the shared registers.
    Wait-free programs terminate unconditionally; programs with wait loops
    terminate under the scheduling fairness of the OS. *)

val run_obs : pid:int -> regs:'v Atomic.t array -> ('v, 'a) Shm.Prog.t -> 'a
(** Like {!run} but reports the invocation, every operation and the
    final response to {!Obs.Hooks}, tagged with [pid], exactly as the
    simulator does, and wraps the whole program in an ["exec"] span.  A
    separate function so the plain interpreter — a benchmarked hot path
    — keeps zero instrumentation cost; callers switch on
    [Obs.Hooks.armed].  Counter updates from concurrent domains may race
    and lose increments: telemetry, not verdicts. *)

val run_counting : regs:'v Atomic.t array -> ('v, 'a) Shm.Prog.t -> 'a * int
(** Also returns the number of shared-memory operations performed. *)

val make_store : backend:[ `Boxed ] -> num:int -> init:'v -> 'v Atomic.t array
(** {!make_regs}; kept for perfbench. *)

val run_store_counting :
  regs:'v Atomic.t array -> ('v, 'a) Shm.Prog.t -> 'a * int
(** {!run_counting}; kept for perfbench. *)
