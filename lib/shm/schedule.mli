(** Schedules and workload drivers for the simulator.

    A schedule in the paper is a sequence of process indices; here we also
    include invocation and crash actions so that complete experiments are
    replayable scripts. *)

type action =
  | Invoke of int  (** start the next method call of this process *)
  | Step of int  (** let this process take one shared-memory step *)
  | Crash of int

type ('v, 'r) supplier = pid:int -> call:int -> ('v, 'r) Prog.t
(** Produces the program of each method call; typically
    [fun ~pid ~call -> Obj.program ~n ~pid ~call]. *)

val apply : ('v, 'r) supplier -> ('v, 'r) Sim.t -> action list -> ('v, 'r) Sim.t
(** Replays a scripted schedule.  Program closures are constructed at most
    once per process per replay, not once per action. *)

val apply_action :
  ('v, 'r) supplier -> ('v, 'r) Sim.t -> action -> ('v, 'r) Sim.t
(** [apply supplier cfg [a]] without the list; for replay inner loops. *)

val programs :
  ('v, 'r) supplier -> n:int -> (call:int -> ('v, 'r) Prog.t) array
(** [programs supplier ~n] hoists the per-process program closures out of a
    driver's inner loop: [(programs s ~n).(pid) ~call = s ~pid ~call]. *)

type footprint =
  | F_read of int
      (** next step reads that register (plain read, or an enabled
          {!Prog.Await} guard-read: keeping an await dependent on
          same-register writes is what makes the reduction sound for
          guarded waits — the write that enables or disables a guard never
          commutes past it) *)
  | F_write of int
      (** next step writes (or swaps, or atomically read-modify-writes)
          that register *)
  | F_invoke
      (** an invocation: commutes with other invocations (two concurrent
          invocations have the same invocation epoch, so their relative
          order is invisible to happens-before) but not with responses or
          crashes *)
  | F_hist  (** touches the response/crash side of the history: ordered
                against every other history toucher including invokes *)
  | F_none  (** no effect (stepping an idle/crashed process is an error,
                but such an action is never enabled) *)

val footprint : ('v, 'r) Sim.t -> action -> footprint
(** The shared state the action touches when taken from [cfg], derivable
    from the pending {!Prog} operation of the process it names. *)

val covered_count : ('v, 'r) Sim.t -> int
(** Number of {e distinct} registers currently covered (a poised write or
    swap), i.e. the paper's [|sig(C)|-ish] occupancy that the covering
    adversaries maximize.  {!run_workload} samples it into the
    instrumentation layer (counter ["sim.covered"]) after every action when
    a sink is attached. *)

val independent : footprint -> footprint -> bool
(** Actions of {e distinct} processes with independent footprints commute:
    applying them in either order from the same configuration yields equal
    configurations (equal up to {!Sim.fingerprint}, which abstracts the
    history to its happens-before relation — hence two invocations
    commute), and neither enables or disables the other.  Reads of the same
    register commute; a write conflicts with any access to its register;
    responses and crashes conflict with every history event including
    invokes (their order {e is} observable through happens-before).  This
    is the independence relation used by the partial-order reduction in
    {!Explore}; like deduplication, it requires invariant/leaf checks to be
    happens-before-abstract rather than inspect literal event order. *)

val symmetry_classes :
  ('v, 'r) supplier -> n:int -> calls_per_proc:int array -> int array
(** Interchangeability classes for the process-symmetry quotient:
    [classes.(pid)] is the smallest pid all of whose potential calls are
    structurally identical programs to [pid]'s ({!Prog.structural_key} on
    every [call < calls_per_proc.(pid)]).  Processes in one class are fully
    interchangeable: same program trees including captured register indices
    and values, so any reachable configuration maps to an isomorphic one
    under a within-class pid permutation.  Feed the result to
    {!Sim.canonicalizer}. *)

val invoke_all :
  ('v, 'r) supplier -> ('v, 'r) Sim.t -> int list -> ('v, 'r) Sim.t
(** Starts one method call on each listed process. *)

val run_round_robin :
  fuel:int -> ('v, 'r) Sim.t -> ('v, 'r) Sim.t option
(** Steps all in-progress calls in round-robin order until quiescence.
    [None] when the fuel runs out first, or when every in-progress call is
    blocked on an await guard (deadlock).  Processes blocked on a guard are
    skipped until a peer's write enables them. *)

val run_random :
  fuel:int -> rand:Random.State.t -> ('v, 'r) Sim.t -> ('v, 'r) Sim.t option
(** Steps a uniformly random runnable process until quiescence; [None] on
    fuel exhaustion or a deadlock of blocked guards. *)

val run_workload :
  ?invoke_prob:float ->
  ?crash_prob:float ->
  ?max_crashes:int ->
  fuel:int ->
  rand:Random.State.t ->
  calls_per_proc:int array ->
  ('v, 'r) supplier ->
  ('v, 'r) Sim.t ->
  ('v, 'r) Sim.t option
(** Random closed workload: each process performs the given number of method
    calls; at every point a uniformly random enabled action is taken (step a
    running process, or start the next call of a process with calls left).
    [invoke_prob] biases the choice between starting a new call and stepping
    a running one (default: proportional to the number of enabled actions;
    small values stagger the calls, producing many happens-before pairs).
    With [crash_prob > 0.], running processes may crash-stop (at most
    [max_crashes] of them); crashed processes simply stop, as the
    asynchronous model allows.  Returns [None] if [fuel] is exhausted. *)

val run_solo_trace :
  fuel:int -> ('v, 'r) Sim.t -> int -> (('v, 'r) Sim.t * ('v, 'r) Sim.t list) option
(** Like {!Sim.run_solo} but also returns every intermediate configuration
    (oldest first, excluding the final one); used by adversaries that must
    truncate a solo schedule "at the earliest point such that ...". *)

val run_pct :
  ?length_hint:int ->
  fuel:int ->
  rand:Random.State.t ->
  depth:int ->
  calls_per_proc:int array ->
  ('v, 'r) supplier ->
  ('v, 'r) Sim.t ->
  ('v, 'r) Sim.t option
(** Probabilistic concurrency testing (Burckhardt et al.): processes get
    random priorities; the highest-priority enabled process always runs;
    at [depth - 1] random change points (drawn from [1 .. length_hint])
    the running process is demoted below everyone.  A schedule with a bug
    of preemption depth [d] is hit with probability at least
    [1 / (n length_hint^(d-1))] — far better than uniform random for
    ordering bugs.  Returns [None] when the fuel runs out. *)
