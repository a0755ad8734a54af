(** Register-access telemetry: the quantities the paper's theorems bound.

    A collector aggregates the {!Hooks.sim} event stream of an execution
    into per-register read/write counts and first-write step numbers, and
    per-process invocation/response counts — exactly the observables the
    covering adversaries (Lemmas 3.1/4.1) reason about.  The covering
    occupancy timeline (how many registers are simultaneously covered) is
    sampled by the drivers via {!Hooks.counter}[ ~name:"sim.covered"] and
    recorded here as a running maximum.

    Indices grow on demand, so one collector can absorb events from
    differently-sized configurations (counts then aggregate across them).
    Counters are plain mutable ints: under domain parallelism concurrent
    increments may be lost (telemetry, not verdicts). *)

type t

val create : unit -> t

val hooks : t -> Hooks.t
(** Feeds [on_sim] events and ["sim.covered"] counter samples into the
    collector; other events are ignored. *)

val reads : t -> int -> int

val writes : t -> int -> int
(** Includes swaps (historyless overwrites cover like writes, Section 7). *)

val first_write_step : t -> int -> int
(** Global event number (0-based, counting every sim event seen by this
    collector) of the first write to the register; [-1] if never written. *)

val proc_responses : t -> int -> int

val totals : t -> int * int * int
(** [(reads, writes+swaps, invocations)] summed over everything. *)

val max_covered : t -> int
(** Largest ["sim.covered"] sample seen; [0] if never sampled. *)

val fill_registry : t -> Metric.registry -> unit
(** Copies the aggregate telemetry into registry counters/gauges
    ([registers.reads], [registers.writes], [registers.touched],
    [registers.max_covered], ...). *)

val pp_heatmap : Format.formatter -> t -> unit
(** The register heatmap: one row per touched register with read/write
    counts, first-write step and a proportional bar. *)
