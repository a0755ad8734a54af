(** Replay helpers shared by the covering-argument adversaries.

    The proofs manipulate {e schedules} rather than configurations: they
    re-execute the same schedule from different configurations, truncate a
    schedule "at the earliest point such that ...", and splice schedules
    together.  These helpers implement those moves over replayable action
    lists; everything is purely functional over simulator configurations. *)

type ('v, 'r) supplier = ('v, 'r) Shm.Schedule.supplier

val apply :
  ('v, 'r) supplier -> ('v, 'r) Shm.Sim.t -> Shm.Schedule.action list ->
  ('v, 'r) Shm.Sim.t

val finish_all :
  fuel:int -> ('v, 'r) supplier -> ('v, 'r) Shm.Sim.t ->
  (('v, 'r) Shm.Sim.t * Shm.Schedule.action list) option
(** Runs every pending operation to completion in pid order; the result is
    quiescent (the paper's "every process with a pending operation finishes
    it"). *)

(** {2 Checkpointed replay}

    The constructions re-execute near-identical schedules from a fixed base
    configuration: Lemma 4.1 re-checks one side per round while the other is
    unchanged, truncates a side (a prefix of what just ran), then extends it
    (the old list plus a solo suffix).  A {!Cache.t} keeps every
    intermediate configuration of the last replay — free, configurations
    are immutable — so each re-execution only simulates past the longest
    common prefix with the previous one. *)

module Cache : sig
  type ('v, 'r) t

  val create : ('v, 'r) supplier -> base:('v, 'r) Shm.Sim.t -> ('v, 'r) t

  val base : ('v, 'r) t -> ('v, 'r) Shm.Sim.t

  val ensure : ('v, 'r) t -> Shm.Schedule.action list -> int
  (** Aligns the cached checkpoints with the given action list, re-simulating
      only past the longest common prefix with the previous alignment.
      Returns the action count: the last checkpoint, after every action,
      is the configuration {!apply} returns. *)

  val apply : ('v, 'r) t -> Shm.Schedule.action list -> ('v, 'r) Shm.Sim.t
  (** [apply t acts] {!ensure}s [acts] and returns the configuration after
      all of them: drop-in replacement for {!val:apply} from the same
      base. *)

  val stats : ('v, 'r) t -> int * int
  (** [(reused, replayed)] action counts over the cache's lifetime: actions
      answered by checkpoints vs actually re-simulated. *)
end

val solo_complete :
  fuel:int -> ('v, 'r) Cache.t -> prefix:Shm.Schedule.action list ->
  pid:int -> (('v, 'r) Shm.Sim.t * Shm.Schedule.action list) option
(** From the configuration after [prefix], invokes [pid] (if idle) and runs
    it solo to completion; returns the final configuration and the solo
    actions.  [None] when fuel runs out.  The solo actions extend the
    cache's checkpoints, so a later {!Cache.ensure} of [prefix @ returned]
    replays nothing. *)

val wrote_outside :
  ('v, 'r) Cache.t -> Shm.Schedule.action list -> outside:(int -> bool) ->
  bool
(** Replays the actions from the cache's base, served from checkpoints;
    true when some executed overwrite step (write or swap) hits a register
    satisfying [outside]. *)

val truncate_at_cover_outside :
  ('v, 'r) Cache.t -> Shm.Schedule.action list -> pid:int ->
  outside:(int -> bool) -> Shm.Schedule.action list option
(** Shortest prefix of the actions (from the cache's base) after which
    [pid] covers a register satisfying [outside]; [None] if no prefix
    does. *)

(** Exact memo over replay-derived facts.  Replay is deterministic, so any
    fact about (base configuration, action list) — e.g. "does this side
    write outside R?" — is cacheable under the base's {!Shm.Sim.fingerprint}
    plus the literal action list.  The fingerprint component carries the
    same 62-bit collision budget as exploration deduplication; action lists
    are compared structurally. *)
module Fp_memo : sig
  type 'a t

  val create : unit -> 'a t

  val memo :
    'a t -> ('v, 'r) Shm.Sim.t -> Shm.Schedule.action list ->
    (unit -> 'a) -> 'a
  (** [memo t base acts f] returns the cached value for [(base, acts)] or
      computes, stores and returns [f ()]. *)

  val stats : 'a t -> int * int
  (** [(hits, misses)]. *)
end

val block_actions : int list -> Shm.Schedule.action list
(** The paper's block write [pi_P] as an action list. *)

val assert_block : ('v, 'r) Shm.Sim.t -> int list -> unit
(** Checks that every listed process is poised to write or swap; raises
    [Invalid_argument] otherwise. *)
