(** Live telemetry: a sampler domain writing a JSONL time series.

    Register named gauge sources (closures returning a float) and stall
    rules, then {!start}: a dedicated domain wakes every [interval_us],
    samples every source, appends one ["sample"] line to the output file
    and flushes, so a concurrent reader ([ts_cli top]) can tail the file
    while the run is live.  The instrumented code pays nothing — sampling
    happens entirely on the sampler domain through the registered
    closures, which must therefore be safe to call from another domain
    (reading an [Atomic.t] or a plain mutable int field is fine; stale
    values are expected and harmless).

    File format (one JSON document per line, {!schema_version}):
    - header: [{"schema_version":1,"kind":"header","interval_us":…,
      "series":[names…],"meta":{…}}]
    - sample: [{"kind":"sample","t_us":…,"v":[floats aligned with
      the header's series]}]
    - event:  [{"kind":"event","event":"stall","rule":…,"t_us":…,
      "depth":…}]
    - end:    [{"kind":"end","samples":…,"stalls":…}] (written by the
      sampler on {!stop})

    The stall detector: a rule pairs a queue-depth source with a progress
    (monotone counter) source; when progress is flat for [after]
    consecutive samples while depth is positive, the consumer is stuck —
    one ["stall"] event is emitted and the rule re-arms. *)

type t

val schema_version : int

val create : ?interval_us:int -> unit -> t
(** [interval_us] defaults to 10_000 (100 Hz). *)

val add_source : t -> name:string -> (unit -> float) -> unit
(** Registers a gauge; sampled in registration order.  The closure runs
    on the sampler domain.  Raises once {!start} has been called. *)

val add_stall_rule :
  ?after:int -> t -> name:string -> depth:(unit -> float) ->
  progress:(unit -> float) -> unit
(** [after] (default 3) is how many consecutive flat-progress samples
    with positive depth it takes to call the consumer stalled — keep it
    above 1 on oversubscribed boxes, where a healthy worker can lose the
    core for a whole sampling interval. *)

val add_meta : t -> string -> Json.t -> unit
(** Adds a key to the header's ["meta"] object (e.g. the shard count). *)

val start : ?append:bool -> out:string -> t -> unit
(** Writes the header (truncating [out] unless [append]) and spawns the
    sampler domain.  Call at most once. *)

val stop : t -> unit
(** Signals the sampler, which takes one final sample, writes the end
    marker, closes the file, and exits; [stop] joins it.  Idempotent. *)

val samples : t -> int
(** Sample lines written so far (readable from any domain). *)

val stalls : t -> int
(** Stall events emitted so far. *)

(** {2 Validation} (used by tests, [ts_cli obs --validate] and [ts_cli
    top]) *)

(** A valid stream, as {!validate} walked it. *)
type validation = {
  v_meta : (string * Json.t) list;  (** the header's ["meta"] object *)
  v_series : string array;  (** the header's series names *)
  v_samples : (float * float option array) array;
      (** each sample's [t_us] and values, in file order; [None] for a
          [null] value *)
  v_events : int;
  v_stalls : int;  (** the ["stall"] events among [v_events] *)
  v_ended : bool;  (** the stream has its end marker *)
}

val looks_like : Json.t list -> bool
(** True when the first document is a telemetry header — use to decide
    whether {!validate} applies to a parsed JSONL file. *)

val validate : Json.t list -> (validation, string) result
(** Structural check: known schema version, every sample aligned with the
    header's series and non-decreasing in [t_us], a correct end marker if
    present.  A stream still being written validates without its end
    marker. *)
