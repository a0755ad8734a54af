(** Wire-facing timestamp server: a sharded event-loop reactor.

    A fixed pool of I/O domains ([io_threads], default = shards) each
    multiplexes many non-blocking connections via [Unix.select]:
    partial frames accumulate across reads, responses drain with
    non-blocking writes (a slow reader gets backpressure — past a
    high-water mark the loop stops reading from it), so the domain count
    is independent of the connection count.

    Each request is answered while its frame is parsed, on the loop
    that decoded it, so replies leave in request order without a queue.
    [Get_stamp] and a lease's anchor run their getTS right there, as a
    process does in the paper's model, through one {!Svc.Client.Direct}
    context that holds the register store, the tick and the pid counter:
    the start tick is read before the program and the end tick claimed
    with one fetch-and-add after it.  The trade-off: while a loop runs a
    burst of expensive getTS, its other connections' [Ping]/[Stats]/
    [Compare] wait behind the burst (DESIGN.md §14).

    No domain polls.  A loop with nothing to do parks ({!Svc.Park}): it
    re-checks its mailbox of handed-over connections, then blocks in
    [select] without a timeout.  Loop 0 also accepts: the listen socket
    is in its [select] set, and each new fd goes to a loop (connection
    id mod io_threads) through a lock-free mailbox plus a wake.  An
    accepted fd at or above [FD_SETSIZE] (1024), which [select] cannot
    watch, is closed at once and counted in {!refused}.

    Stamps are codec-encoded straight into the send buffer, and
    [Compare] payloads are parsed with the implementation's strict
    {!Codec}.  Applying [Make] to an implementation without a codec
    raises [Invalid_argument] ({!Codec.for_impl}), so it can never reach
    a socket.

    A connection connects its own {!Svc.Client.Direct} handle lazily, on
    its first [Get_stamp]: control and lease-only connections never
    consume one of a long-lived object's [n] process ids, and a
    connection past [n] gets an [Err] saying "at most n".  A one-shot
    object draws a fresh pid per stamp; once [n] are spent, each further
    stamp gets an [Err].

    Anchors on demand: a [Get_range k] lease is one anchor getTS plus [k]
    end ticks reserved after it executed
    ({!Svc.Client.Direct.reserve_ticks}, DESIGN.md §14).  Each lease runs
    its own anchor on the loop's anchor handle, connected by the loop's
    first lease.  Nothing runs while nobody asks.  For a long-lived
    object each loop that has granted a lease holds one of the [n]
    process ids; a one-shot object spends one per lease (DESIGN.md §15).

    The [Stats] reply's per-shard entries count per I/O loop: [served]
    is the getTS programs the loop ran, [batches] the parse passes that
    ran at least one, [max_batch] the most programs in one pass.
    Per-connection counters aggregate into a fixed number of slots
    (connection id mod [conn_slots]) exported as [c<slot>.*] telemetry
    gauges; slot ids are reused as connections come and go and
    [c<slot>.conns] counts live connections, so [ts_cli top] stays
    readable at hundreds of connections. *)

module Make (T : Timestamp.Intf.S) : sig
  type t

  val start :
    ?shards:int ->
    ?conn_slots:int ->
    ?io_threads:int ->
    addr:Conn.addr ->
    n:int ->
    unit ->
    t
  (** Provisions [T.num_registers ~n] shared registers, binds and listens
      on [addr] (an existing Unix socket path is unlinked first; TCP sets
      [SO_REUSEADDR]), and spawns the [io_threads] I/O loops — the only
      domains it starts, independent of connection count and of leases.
      [shards] (default 1) is only the default for [io_threads].
      [conn_slots] (default 4) sizes the telemetry counter groups.  On
      bind/listen failure the exception is re-raised; if the listen
      socket or a loop's wake pipe lands on an fd at or above
      [FD_SETSIZE], it fails with [Failure] naming the fd.  If a loop's
      [Domain.spawn] fails, the start is undone as by {!stop} (loops
      joined, fds closed, a Unix path unlinked) before the exception is
      re-raised. *)

  val bound_addr : t -> Conn.addr
  (** The actual listening address — resolves a requested TCP port 0 to
      the kernel-assigned port. *)

  val info : t -> Frame.server_info
  (** What {!Frame.Ping} answers: implementation name, kind, [n], I/O
      loops (as [si_shards]), codec name. *)

  val stop_requested : t -> bool
  (** A client sent {!Frame.Stop}.  The server keeps serving until the
      owner calls {!stop} — a handler cannot join itself. *)

  val domains : t -> int
  (** Domains this server has spawned: one per I/O loop, [io_threads].
      Connections and leases are served on those loops. *)

  val live_conns : t -> int
  (** Connections currently owned by the I/O loops. *)

  val refused : t -> int
  (** Connections closed at accept because their fd was at or above
      [FD_SETSIZE]; also in the [Stats] reply ([sr_refused]) and the
      [net.refused] telemetry gauge. *)

  val wait : t -> unit
  (** Parks until {!stop_requested} (or {!stop} from another domain); a
      [Stop] frame and {!stop} wake it.  One waiting domain at a time. *)

  val stop : t -> unit
  (** Graceful shutdown: wakes and joins every I/O loop — each flushes
      the replies it has already written, best-effort and bounded (so a
      dead peer cannot hang shutdown), and closes its connections — then
      closes the listen socket (unlinking a Unix path).  Idempotent;
      concurrent callers lose the race and return immediately. *)

  val requests_total : t -> int

  val conns_total : t -> int
  (** Cumulative connections accepted (the shutdown summary). *)

  val net_sources : t -> (string * (unit -> float)) list
  (** The [c<slot>.{conns,requests,stamps,leases,bytes_in,bytes_out}]
      gauges, safe to sample from any domain.  [conns] is the slot's
      live connection count. *)

  val attach_telemetry : t -> Obs.Timeseries.t -> unit
  (** Registers per I/O loop [i] the [s<i>.served] and [s<i>.batches]
      gauges (as in the [Stats] reply), {!net_sources}, the
      [net.refused] gauge and the listen address / conn_slots /
      io_threads metadata. *)
end
