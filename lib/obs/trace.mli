(** Chrome trace-event sink ([chrome://tracing] / Perfetto loadable).

    Events accumulate in memory (a mutex guards the buffer, so domains can
    emit concurrently; each event carries the emitting domain as its [tid])
    and are written once at the end as
    [{"traceEvents": [...], "displayTimeUnit": "ms", ...}].  Timestamps are
    microseconds on {!Obs.Clock}, rebased to the trace's creation so they
    stay small.

    Span begin/end pairs map to ["B"]/["E"] duration events, which Chrome
    requires to nest per thread — the {!Hooks.with_span} discipline
    guarantees that.  Counter samples map to ["C"] events (rendered as a
    timeline area chart), instants to ["i"]. *)

type t

val create : ?process_name:string -> unit -> t

val now_us : t -> float
(** Microseconds since trace creation. *)

val span_begin : t -> name:string -> unit

val span_end : t -> name:string -> unit

val counter : t -> name:string -> float -> unit

val complete : t -> name:string -> start_us:float -> dur_us:float -> unit
(** A pre-measured ["X"] event, for phases timed outside the trace. *)

val hooks : t -> Hooks.t
(** Routes span and counter events into the trace; per-operation sim events
    are deliberately not traced (millions of events would dwarf the file —
    aggregate them with a {!Collector} instead). *)

val num_events : t -> int

val to_json : t -> Json.t

val write_file : ?append:bool -> t -> string -> unit
(** Truncates the file unless [append] (default false). *)

(** Seconds on {!Obs.Clock}, for perfbench, which subtracts [now_s () *.
    1e6] from [Svc.Client.stamp]'s [st_resp_us]; the library reads
    {!Obs.Clock} itself. *)
module Clock : sig
  val now_s : unit -> float
  (** {!Obs.Clock.now_ns} in seconds. *)
end
