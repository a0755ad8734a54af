(** Seeded load generator for the timestamp service.

    Runs [clients] clients, client 0 on the calling domain and each other
    on a domain of its own; each performs [requests_per_client] getTS
    calls through a {!Client.S} transport.  The built-in dispatch ({!run})
    covers mode [Service] ({!Client.Inproc} over a fresh service) and mode
    [Direct] ({!Client.Direct}, the unbatched baseline and [ts_cli
    stress]).  External transports go through their own entry point over
    the generic engine ({!Drive}): a live wire server is driven by
    [Net.Client.run], with the same workloads and report.

    Two arrival disciplines:
    - [Closed] (the default): a client keeps at most [pipeline] requests
      in flight — it submits a burst, awaits all of its responses, and
      repeats.
      [pipeline = 1] is the classic one-outstanding-call closed loop.
    - [Open { rate }]: requests have scheduled arrival times drawn from a
      fixed aggregate [rate] (requests/second across all clients,
      interleaved evenly), and latency is measured from the *intended*
      start, not the actual submission — so when a backlog delays the
      client, the wait counts against the service.  This is the
      coordinated-omission-correct discipline (wrk2-style); the closed
      loop's percentiles silently forgive any stall because the client
      simply stops generating load while it waits.  The in-flight window
      is still bounded by [pipeline].

    Latencies are recorded live, in integer nanoseconds, into
    single-writer {!Obs.Hdr} histograms that each client owns (one plain
    increment per record), and the report's p50/p90/p99/p99.9/max come
    from the lossless merge of the clients' snapshots.

    Every request's submit/response order is recorded against the global
    tick, so the report carries a {!Timestamp.Checker.check_calls} verdict
    over the real happens-before order the clients observed.  Each client
    writes its calls' process ids, call numbers, ticks and stamps into
    flat columns sized before the run starts, which the checker reads in
    place: a client keeps no fresh block per call, so its minor
    collections promote nothing but the stamps that are blocks.  The
    implementation's declared order ({!Timestamp.Intf.order}) picks the
    checker path: a radix-sorted sweep for a strict weak or strict
    partial order, the exhaustive pair scan otherwise.

    With [telemetry = Some _], the run starts an {!Obs.Timeseries}
    sampler over the generator's own [lat.p50_us]/[lat.p99_us]/
    [lat.p999_us]/[lg.completed] series plus any transport-provided
    sources (service mode attaches the service's live gauges), writes the
    JSONL time series to [tel_out], and reports the sample/stall
    counts. *)

type mode =
  | Direct  (** no service: each client runs its own getTS on the registers *)
  | Service of { shards : int; batch_max : int }

type arrival =
  | Closed
  | Open of { rate : float }  (** aggregate arrival rate, requests/second *)

type telemetry = {
  tel_out : string;  (** JSONL time-series file *)
  tel_append : bool;
  tel_interval_us : int;  (** sampler period *)
}

type cfg = {
  mode : mode;
  arrival : arrival;
  clients : int;
  requests_per_client : int;
  pipeline : int;  (** in-flight requests per client; [Direct]'s closed
                       loop runs a burst's calls back to back and records
                       their latencies after the last one *)
  n : int;  (** processes to provision; raised automatically when the
                implementation needs more (one-shot: total requests,
                long-lived: [clients]) *)
  seed : int;  (** unused by the run itself *)
  telemetry : telemetry option;  (** live sampler; any transport *)
}

val default : cfg
(** [Direct], [Closed], 4 clients, 100 requests each, pipeline 1, n = 8,
    seed 1, no telemetry. *)

val stress : Timestamp.Registry.impl -> n:int -> calls:int -> cfg
(** The real-domain stress run of [ts_cli stress]: [Direct], [n] clients
    of an [n]-process object, each running its [calls] getTS (one for a
    one-shot object) as a single closed-loop burst, which
    {!Client.Direct} runs back to back. *)

type shard_report = {
  sr_shard : int;
  sr_served : int;
  sr_batches : int;
  sr_max_batch : int;
  sr_p50_us : float;
  sr_p99_us : float;
}

type report = {
  lg_impl : string;
  lg_mode : string;  (** human-readable mode summary *)
  lg_total : int;  (** requests completed (= clients * requests_per_client) *)
  lg_elapsed_s : float;
      (** seconds from the start gate to the end of the last client *)
  lg_throughput : float;  (** requests per second *)
  lg_hb_pairs : int;  (** happens-before pairs the checker verified *)
  lg_violation : string option;  (** [None] = specification holds *)
  lg_check_s : float;  (** seconds the happens-before check took *)
  lg_p50_us : float;
  lg_p90_us : float;
  lg_p99_us : float;
  lg_p999_us : float;
  lg_max_us : float;  (** exact recorded maximum (HDR tracks it exactly) *)
  lg_shards : shard_report list;  (** one entry ([Direct]: a single pseudo
                                      shard with no batch counters) *)
  lg_timestamps : string list Lazy.t;
      (** pretty-printed timestamps in response (tick) order — the served
          sequence, used by determinism tests; built only when forced *)
  lg_samples : int;  (** telemetry samples written (0 when telemetry off) *)
  lg_stalls : int;  (** stall-detector events (0 when telemetry off) *)
}

val validate : cfg -> unit
(** Raises [Invalid_argument] unless [clients], [requests_per_client],
    [pipeline], an open-loop [rate] and a telemetry [tel_interval_us] are
    positive: the check {!run} and {!Drive.run} make first, so a bad
    [cfg] is refused before a service starts or a handle connects. *)

val arrival_string : cfg -> string
(** [""] for the closed loop, [" open rate=R/s"] for the open loop —
    suffix for custom transports' mode labels. *)

(** The generic engine: drive any {!Client.S} transport with the
    closed-/open-loop workloads and produce the standard {!report}.
    {!run} is a thin dispatcher over this functor, and [Net.Client.run]
    its wire twin. *)
module Drive (C : Client.S) : sig
  type setup = {
    connect : int -> C.t;
        (** client [i]'s handle; called on the client's own domain, the
            calling domain for client 0 (pre-connect and return an array
            slot for deterministic placement) *)
    num_shards : int;  (** serving shards, for the per-shard histograms;
                           out-of-range [st_shard] values land in shard 0 *)
    impl : string;
        (** implementation name, for [lg_impl]; also selects the
            {!Timestamp.Checker.check_calls} path: the declared
            {!Timestamp.Intf.S.order} of the registered implementation
            of that name ({!Timestamp.Registry.find}), and the exhaustive
            scan for any unregistered name *)
    mode_label : string;  (** for [lg_mode] *)
    backend_label : string;  (** unused; kept for perfbench *)
    compare_ts : C.result -> C.result -> bool;
    pp_ts : Format.formatter -> C.result -> unit;
    attach : (Obs.Timeseries.t -> unit) option;
        (** add transport telemetry sources before the sampler starts *)
    teardown : unit -> unit;
        (** runs exactly once per {!run}: after all clients ended and
            before [service_stats] and the check, or, when the run
            raises, before the exception leaves {!run} *)
    service_stats : (unit -> (int * int * int) array) option;
        (** per-shard [(served, batches, max_batch)] for the report *)
  }

  val run : setup -> cfg -> report
  (** Ignores [cfg.mode] (the transport is [setup]'s business); honours
      everything else.  Spawns [clients - 1] domains: client 0 runs on
      the calling domain.  If a [Domain.spawn] fails (past the runtime's
      domain limit), the clients already spawned are joined, unconnected,
      before the exception is re-raised.  A client that raises, even in
      [connect] before the clients' ready barrier, ends alone: the others
      run to their end, and then [run] re-raises the first exception.
      [setup.teardown] runs on every path out of [run], once.  Spans:
      ["loadgen.run"] (the client phase), ["loadgen.spawn"] and
      ["loadgen.check"]. *)
end

val run : Timestamp.Registry.impl -> cfg -> report
(** Runs the workload to completion (service mode shuts the service down
    gracefully afterwards and asserts the drain lost nothing). *)
