(** Wire-facing timestamp server: a sharded event-loop reactor.

    A fixed pool of I/O domains ([io_threads], default = shards) each
    multiplexes many non-blocking connections via [Unix.select]:
    partial frames accumulate across reads, responses drain with
    non-blocking writes (a slow reader gets backpressure — past a
    high-water mark the loop stops reading from it), and service
    requests are completed with the non-blocking
    {!Svc.Service.Make.poll}, so the domain count is independent of the
    connection count.  Replies stay FIFO per connection.

    No domain polls.  A loop with nothing to do parks ({!Svc.Park}): it
    re-checks for completed tickets and handed-over connections, then
    blocks in [select] without a timeout; its sessions carry its pipe
    park, so a completing worker writes the loop's self-pipe only while
    the loop is parked.  Loop 0 also accepts: the listen socket is in
    its [select] set, and each new fd goes to a loop (connection id mod
    io_threads) through a lock-free mailbox plus a wake.  An accepted fd
    at or above [FD_SETSIZE] (1024), which [select] cannot watch, is
    closed at once and counted in {!refused}.

    Stamps are codec-encoded straight into the send buffer (zero
    minor-heap words per stamp), and [Compare] payloads are parsed with
    the implementation's strict {!Codec}.  Applying [Make] to an
    implementation without a codec raises [Invalid_argument]
    ({!Codec.for_impl}), so it can never reach a socket.

    [Ping]/[Stats]/[Compare] are answered on the I/O domain.

    Anchors on demand: a [Get_range k] lease is one anchor getTS plus [k]
    end ticks reserved after it executed
    ({!Svc.Service.Make.reserve_ticks}, DESIGN.md §14).  The anchor runs
    because the lease asked for it: each lease submits its own getTS on
    the loop's anchor session, opened by the loop's first lease.  Nothing
    runs while nobody asks.  For a long-lived object each loop that has
    granted a lease holds one of the [n] process ids; a one-shot object
    spends one per lease (DESIGN.md §15).

    A connection opens its own session lazily, on its first [Get_stamp]:
    control and lease-only connections never consume one of a long-lived
    object's [n] process ids.

    Per-connection counters aggregate into a fixed number of slots
    (connection id mod [conn_slots]) exported as [c<slot>.*] telemetry
    gauges; slot ids are reused as connections come and go and
    [c<slot>.conns] counts live connections, so [ts_cli top] stays
    readable at hundreds of connections. *)

module Make (T : Timestamp.Intf.S) : sig
  type t

  val start :
    ?batch_max:int ->
    ?shards:int ->
    ?backend:Multicore.Backend.choice ->
    ?telemetry:bool ->
    ?conn_slots:int ->
    ?io_threads:int ->
    addr:Conn.addr ->
    n:int ->
    unit ->
    t
  (** Starts the service ({!Svc.Service.Make.start} semantics for the
      shared parameters), binds and listens on [addr] (an existing Unix
      socket path is unlinked first; TCP sets [SO_REUSEADDR]), and
      spawns the [io_threads] I/O loops — the only domains it starts on
      top of the service shards, independent of connection count and of
      leases.  [conn_slots] (default 4) sizes the telemetry counter
      groups.  On bind/listen failure the service is stopped and the
      exception re-raised; if the listen socket or a loop's wake pipe
      lands on an fd at or above [FD_SETSIZE], it fails with [Failure]
      naming the fd. *)

  val bound_addr : t -> Conn.addr
  (** The actual listening address — resolves a requested TCP port 0 to
      the kernel-assigned port. *)

  val info : t -> Frame.server_info
  (** What {!Frame.Ping} answers: implementation name, kind, [n],
      shards, backend tag, codec name. *)

  val stop_requested : t -> bool
  (** A client sent {!Frame.Stop}.  The server keeps serving until the
      owner calls {!stop} — a handler cannot join itself. *)

  val domains : t -> int
  (** Domains this server has spawned: one per I/O loop, so always
      [io_threads t] (service workers are counted by the service).
      Connections and leases are served on those loops. *)

  val io_threads : t -> int

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
  (** Graceful shutdown: wakes and joins every I/O loop — each answers
      the requests still in flight, flushes best-effort (bounded, so a
      dead peer cannot hang shutdown), and closes its connections —
      then closes the listen socket (unlinking a Unix path) and stops
      the service.  Idempotent; concurrent callers lose the race and
      return immediately. *)

  val requests_total : t -> int

  val conns_total : t -> int
  (** Cumulative connections accepted (the shutdown summary). *)

  val net_sources : t -> (string * (unit -> float)) list
  (** The [c<slot>.{conns,requests,stamps,leases,bytes_in,bytes_out}]
      gauges, safe to sample from any domain.  [conns] is the slot's
      live connection count. *)

  val attach_telemetry : t -> Obs.Timeseries.t -> unit
  (** The service's gauges and stall rules
      ({!Svc.Service.Make.attach_telemetry} — requires
      [~telemetry:true]) plus {!net_sources}, the [net.refused] gauge
      and the listen address / io_threads metadata. *)

  val service_stats : t -> Svc.Service.Make(T).shard_stats array
end
