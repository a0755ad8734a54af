(** Sharded, batched timestamp service on real OCaml domains.

    A fixed pool of worker domains each owns one shard.  Clients open
    sessions (a session is pinned to a shard), enqueue getTS requests into
    the shard's lock-free intrusive MPSC inbox, and wait on the request's
    done flag; the worker drains its inbox in FIFO batches and executes
    each request against one shared register store via {!Multicore.Exec} —
    so requests from different shards still contend on the same registers,
    exactly the paper's model, but each request's program runs on a single
    domain and the per-request queue synchronization is amortized over a
    batch.

    Nothing polls.  An idle worker parks on its shard's {!Park} and
    [submit] wakes it; a client in {!await} parks on its session's
    {!Park} and the worker wakes each session once per stamp chunk, after
    the last done flag of that session's run in the chunk.  A wake costs
    one atomic load when nobody is parked.

    The submit/complete path is allocation-free in steady state (pinned by
    a [Gc.minor_words] test): request records are pooled per session and
    relinked intrusively instead of consed, the completion signal is a
    preallocated int flag rather than a fresh option cell, and end ticks
    are reserved once per batch.

    Happens-before accounting mirrors {!Client.Direct}: a global tick is
    read at submit time, and a batch reserves its [end_tick] range with one
    fetch-and-add after all of its programs have executed, so if a client
    receives request [r1]'s response before some client submits [r2] then
    [end_tick r1 < start_tick r2] — a sound witness for the checker
    ({!Timestamp.Checker.check_timed}).

    Per-session request order is preserved: a session's requests land in
    one FIFO inbox and one worker serves them in order, so a long-lived
    process's calls stay sequential even when a client pipelines several
    submissions.

    In-process clients ({!Client.Inproc}) and the load generator's
    service mode use this module.  The wire server ([Net.Server]) does
    not: its I/O loops run each decoded getTS themselves, through
    {!Client.Direct}, with no hand-off to a worker. *)

module Make (T : Timestamp.Intf.S) : sig
  type t

  type session

  type resp = {
    ts : T.result;
    pid : int;  (** process id the request ran as *)
    call : int;  (** 0-based call number of that process *)
    shard : int;
    start_tick : int;  (** global tick at submit *)
    end_tick : int;  (** global tick at response *)
    resp_us : float;
        (** {!Obs.Clock.now_us} when the worker published the response,
            read once per stamp chunk (so same-chunk responses share it).
            Service-side completion time: it excludes the client's own
            wakeup latency after the done flag flips. *)
  }

  type ticket
  (** An in-flight request; redeem with {!await} (then optionally
      {!release}) or {!await_ts}.  Tickets are pooled: after release the
      record is reused by a later {!submit} on the same session, so a
      released ticket must not be touched again. *)

  exception Stopped
  (** Raised by {!submit} once {!stop} has begun. *)

  val start :
    ?batch_max:int ->
    ?shards:int ->
    ?telemetry:bool ->
    n:int ->
    unit ->
    t
  (** Provisions [T.num_registers ~n] shared registers and spawns [shards]
      worker domains (default 1).  [batch_max] (default 64) caps how many
      requests a worker executes per batch; [batch_max = 1] is the
      unbatched mode benchmarked by E13.  An idle worker parks on its
      shard's {!Park} and uses no CPU until a {!submit} wakes it.
      If a spawn fails (past the runtime's domain limit), the workers
      already spawned are stopped and joined before the exception is
      re-raised.

      [telemetry] (default false) maintains the live gauges behind
      {!telemetry_sources} — per-shard queue depth, batch-size HDR
      histogram, free-list occupancy — even when the {!Obs.Hooks} sinks
      are disarmed.  The extra hot-path cost is a handful of atomic
      increments and one HDR record per batch, still allocation-free
      (pinned by test; budgeted <5% by E16). *)

  val open_session : t -> session
  (** For long-lived implementations the session owns process id
      [session index] (at most [n] sessions).  For one-shot implementations
      every request consumes a globally fresh process id instead (at most
      [n] requests service-wide); the session only pins the shard.  The
      worker wakes the session's own condition-variable park, which
      {!await} blocks on, when its requests complete. *)

  val submit : session -> ticket
  (** Enqueues one getTS; allocation-free once the session's request pool
      has warmed up.  Not thread-safe per session (each session has one
      owning client); different sessions submit concurrently freely.
      Raises {!Stopped} after {!stop}, [Invalid_argument] when a one-shot
      service has exhausted its [n] process ids. *)

  val await : ticket -> resp
  (** Waits for the response ({!Park.wait} on the session's park:
      blocked until the worker's wake), then copies it
      out into a fresh record.  Does not recycle the ticket — call
      {!release} afterwards to return it to the session pool. *)

  val release : session -> ticket -> unit
  (** Returns an awaited ticket's record to the session's pool (drops it
      when the pool is full).  Call at most once per ticket, only after
      {!await} has returned, and only on the submitting session. *)

  val await_ts : session -> ticket -> T.result
  (** Waits like {!await} but returns only the timestamp and recycles the
      ticket in one step — the allocation-free completion path. *)

  val get_ts : session -> resp
  (** [await]+[release] of [submit session]. *)

  val stop : t -> unit
  (** Graceful shutdown: refuses new submissions, waits until every
      in-flight request has been answered (sleeping in 50µs quanta —
      stopping never burns a core), then raises the stop flag, wakes the
      parked workers and joins them.  Idempotent. *)

  type shard_stats = {
    served : int;
    batches : int;  (** nonempty batches executed *)
    max_batch : int;
  }

  val stats : t -> shard_stats array
  (** Per-shard counters; exact once {!stop} has returned. *)

  val telemetry_sources : t -> (string * (unit -> float)) list
  (** Named live gauges, safe to sample from any domain: per shard [i],
      [si.depth] (submitted-not-yet-batched), [si.served], [si.batches],
      [si.chunks] (end-tick reservation chunks) and [si.batch_p50]
      (median batch size from the shard's HDR histogram), plus the
      service-wide [svc.pool] (records parked in session free lists).
      Depth and pool read 0 unless the service was started with
      [~telemetry:true] or armed hooks. *)

  val attach_telemetry : t -> Obs.Timeseries.t -> unit
  (** Registers every {!telemetry_sources} gauge plus one stall rule per
      shard (queue depth vs. served counter) and the shards/batch_max
      header metadata on a not-yet-started time series.  Raises
      [Invalid_argument] when the service isn't maintaining gauges (see
      {!start}'s [telemetry]). *)
end
