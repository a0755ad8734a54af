(** Model-checked encodings of the serving layer's concurrency skeleton.

    The service ([Service], [Mpsc], [Park]) runs on real atomics, where
    tests can only sample schedules.  This module re-states its five
    synchronization patterns as bounded {!Shm.Prog} programs over the
    simulator's sequentially consistent registers, so {!Shm.Explore} can
    enumerate {e every} schedule of a small instance and check the
    protocol invariants on each reachable configuration:

    - {!Mpsc} — the Treiber-stack push (read + CAS retry) racing a
      single-exchange drain: per-producer FIFO, no duplicated and no lost
      pushes.
    - {!Pool} — the pooled request-record lifecycle: free-list acquire,
      reset-flag-then-publish, worker completes fields-then-flag, client
      awaits and releases.  No slot is double-acquired, no completion is
      stale.
    - {!Tick} — the chunked end-tick reservation: execute the drained
      batch, {e then} fetch-and-add the tick once, then publish.  The tick
      never outruns the count of executed requests (the paper-facing
      soundness fact behind [Service.run_batch]'s comment).
    - {!Stop} — the graceful-stop handshake: gate re-check in [submit]
      versus close-gate / await-in-flight / raise-flag in [stop].  Once
      the stop flag is up, nothing is in flight, nothing is pending, and
      everything accepted was served.  Clients are anonymous (one symmetry
      class), so this model exercises the process-symmetry quotient.
    - {!Park} — the park/wake handshake ([Park.wait] against the worker's
      per-run [Park.wake]): the waiter raises [parked], re-checks its done
      flag, then awaits a wake; the worker flips a run of [n] done flags,
      then wakes once.  No wakeup is lost: the waiter never ends blocked.

    The model-to-code correspondence — which loops were bounded, which
    multi-step operations were collapsed, and why each collapse removes no
    observable interleaving — is tabulated in DESIGN.md section 13.

    {!mutants} are deliberately broken variants (dropped CAS retry, tick
    reserved before execution, stop without drain, wake after the first
    flip of a run, park without re-check) used to demonstrate the
    invariants have teeth: the explorer kills each with a short schedule,
    checked into [test/repro_corpus/model-*.json]. *)

type gate = { g_pending : int; g_pushed : int; g_stopping : bool }
(** The stop model's merged inbox-depth / accepted-count / stop-flag
    record (merged so the worker's wait is a single-register
    {!Shm.Prog.await} guard). *)

type value =
  | V_int of int
  | V_items of (int * int) list
      (** mpsc stack/log entries: (producer pid, per-producer seq),
          newest first in the stack register *)
  | V_slots of int list  (** slot or client ids, newest first *)
  | V_gate of gate

type result =
  | R_pushed of int * int
  | R_drained of (int * int) list
  | R_served of { slot : int; req : int; res : int }
  | R_ticked of { t_start : int; t_end : int; order : int }
  | R_submitted
  | R_rejected
  | R_worker of int
  | R_stopper
  | R_ready of int  (** park: the waiter saw record [j] done *)

type model = Mpsc | Pool | Tick | Stop | Park

val all : model list

val name : model -> string
(** ["mpsc" | "pool" | "tick" | "stop" | "park"]. *)

val of_name : string -> (model, string) Stdlib.result

val describe : model -> string
(** One-line human description for [ts_cli verify-svc] listings. *)

type mutant = {
  m_name : string;
  m_model : model;
  m_desc : string;
}

val mutants : mutant list

type sys = {
  procs : int;  (** total processes: n clients/producers plus the fixed
                    roles (consumer, worker shards, stopper) *)
  num_regs : int;
  init : value array;  (** per-register initial values *)
  calls_per_proc : int array;
  supplier : (value, result) Shm.Schedule.supplier;
  invariant : (value, result) Shm.Sim.t -> bool;
  leaf : (value, result) Shm.Sim.t -> bool;
}

val sys : ?mutant:string -> model -> n:int -> (sys, string) Stdlib.result
(** The model instantiated at [n] clients/producers (for [Park]: [n]
    records in the waiter's run), optionally with a named mutant planted
    (the mutant must belong to the model).  [Error] on an unknown mutant
    or a model/mutant mismatch; raises [Invalid_argument] if [n < 1]. *)

val initial : sys -> (value, result) Shm.Sim.t

val verify :
  ?max_steps:int ->
  ?max_paths:int ->
  ?dedup:bool ->
  ?reduction:bool ->
  ?symmetry:bool ->
  ?domains:int ->
  ?mutant:string ->
  model ->
  n:int ->
  ((value, result) Shm.Explore.outcome, string) Stdlib.result
(** Exhaustively explore the model under {!Shm.Explore.explore} (same
    defaults), checking its invariant everywhere and its leaf check at
    maximal configurations.  [Ok (Counterexample _)] on a faithful model
    would be a shipped bug in [lib/svc]. *)

val replay :
  ?mutant:string ->
  model ->
  n:int ->
  Shm.Schedule.action list ->
  (string option, string) Stdlib.result
(** Replays a scripted schedule.  [Ok (Some why)] when it violates the
    invariant at some prefix, deadlocks, or fails the leaf check at a
    maximal quiescent end state; [Ok None] when it passes; [Error] when
    the schedule is structurally invalid (stepping an idle process,
    invoking past the call budget) or the model/mutant pair is unknown. *)

val impl_of_string : string -> (model * string option, string) Stdlib.result

val to_repro :
  ?mutant:string -> model -> n:int -> Shm.Schedule.action list -> Fuzz.Repro.t
(** Packages a failing schedule as a corpus document (fuzz repro schema,
    [impl] ["model/<model>"] or ["model/<model>/<mutant>"], distinguishable
    from fuzz repros). *)

val replay_repro : Fuzz.Repro.t -> (string option, string) Stdlib.result
(** {!replay} driven by a loaded corpus document. *)

val shrink :
  ?mutant:string ->
  model ->
  n:int ->
  Shm.Schedule.action list ->
  (Shm.Schedule.action list * string) option
(** Greedy minimization of a failing schedule via {!Fuzz.Shrink}
    (system-size lowering disabled: model processes are heterogeneous
    roles, not an interchangeable population).  [None] when the input
    schedule does not fail {!replay} in the first place. *)
