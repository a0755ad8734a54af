(** Typed metrics with a named registry.

    Counters (monotone ints), gauges (last-value floats) and histograms
    (log-scale buckets plus count/sum/min/max) are created once, by name, in
    a registry, and updated with plain mutable writes — an update is an
    unsynchronized store, cheap enough for simulator hot paths.  Under
    domain parallelism concurrent updates to the {e same} metric may lose
    increments (telemetry, not verdicts); create per-domain metrics when
    exact counts matter.

    Two sinks: a human-readable table ({!pp_table}) and a metrics JSONL
    document ({!to_jsonl}, one JSON object per line, each carrying
    [schema_version]). *)

type registry

type counter

type gauge

type histogram

val schema_version : int
(** Version stamped on every JSONL line (and on the benchmark JSON files
    that share {!Json}). *)

val registry : ?name:string -> unit -> registry

(** Get-or-create by name.  Returns the existing metric when the name is
    already registered; raises [Invalid_argument] if it is registered as a
    different kind. *)

val counter : registry -> string -> counter

val gauge : registry -> string -> gauge

val histogram : ?buckets:float array -> registry -> string -> histogram
(** [buckets] are ascending upper bounds; observations above the last bound
    land in a final overflow bucket.  Default: powers of two from 1 to
    [2^20]. *)

val incr : counter -> unit

val add : counter -> int -> unit

val value : counter -> int

val set : gauge -> float -> unit
(** Also tracks the maximum ever set (see {!to_jsonl}). *)

val gauge_value : gauge -> float

val observe : histogram -> float -> unit

val percentile : histogram -> float -> float
(** [percentile h p] estimates the [p]-th percentile by walking the
    cumulative bucket counts and interpolating linearly inside the bucket
    where the rank falls, Prometheus-style.  The estimate is clamped to
    the observed [min..max] range, and the edges are exact: [p <= 0]
    returns the recorded minimum and [p >= 100] the recorded maximum
    rather than a bucket bound.  [nan] when the histogram is empty. *)

val hist_count : histogram -> int

val hist_sum : histogram -> float

val hist_buckets : histogram -> (float * int) list
(** [(upper_bound, count)] pairs, the overflow bucket last with bound
    [infinity]. *)

val to_jsonl : registry -> string
(** One JSON object per metric per line:
    [{"schema_version":N,"registry":...,"kind":...,"name":...,...}]. *)

val write_jsonl_file : ?append:bool -> registry -> string -> unit
(** Truncates the file unless [append] (default false). *)

val pp_table : Format.formatter -> registry -> unit
(** Metrics in registration order, one row each. *)
