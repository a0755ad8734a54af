(** The instrumentation hook point.

    Every instrumented layer ([Shm.Sim], [Shm.Explore], [Multicore],
    [Timestamp.Harness], ...) reports events through this module.  When no
    sink is attached ({!armed} is false, the default) each report is one
    mutable-flag load and a conditional branch — no allocation, no call
    into a sink — so instrumented code is safe to leave in hot paths (the
    E10 overhead budget in EXPERIMENTS.md is enforced by a test that
    checks the disarmed path allocates nothing).

    Sinks are hook records ({!t}); {!Collector.hooks}, {!Trace.hooks} and
    {!metrics_hooks} build them, {!combine} fans out to several, and
    {!with_hooks}/{!clear} arm and disarm the global dispatch point.  The
    installed record is global mutable state: concurrent domains all report
    into the same record (sinks must tolerate that; the bundled ones do),
    and nested installs are not supported — the CLI installs once around a
    whole command. *)

type sim_event =
  | Read
  | Write
  | Swap
  | Invoke
  | Respond
  | Crash

type t = {
  on_sim : sim_event -> pid:int -> reg:int -> unit;
      (** one shared-memory/history event; [reg] is [-1] for events without
          a register (invoke, respond, crash) *)
  on_span_begin : name:string -> unit;
  on_span_end : name:string -> unit;
      (** wall-clock phase markers; properly nested per domain *)
  on_counter : name:string -> float -> unit;
      (** a timeline sample of a named quantity (e.g. covering occupancy) *)
  on_observe : name:string -> float -> unit;
      (** one observation of a named distribution (e.g. frontier depth) *)
}

val noop : t

val combine : t list -> t

val clear : unit -> unit
(** Disarms and restores {!noop}. *)

val armed : unit -> bool

val with_hooks : t -> (unit -> 'a) -> 'a
(** Installs the record and arms the dispatch point, runs, and
    {!clear}s (also on exception). *)

(** Reporting entry points used by instrumented code; all are no-ops when
    disarmed. *)

val sim : sim_event -> pid:int -> reg:int -> unit

val span_begin : name:string -> unit

val span_end : name:string -> unit

val with_span : string -> (unit -> 'a) -> 'a
(** Brackets [f] with {!span_begin}/{!span_end}; the end marker is emitted
    even when [f] raises.  When disarmed this is a tail call to [f]. *)

val counter : name:string -> float -> unit

val observe : name:string -> float -> unit

val metrics_hooks : Metric.registry -> t
(** A sink that folds events into a registry: sim events into
    [sim.<event>] counters, counter samples into gauges, observations into
    histograms (spans are ignored — attach a {!Trace} sink for those). *)
