(** Wire-facing timestamp server: a sharded event-loop reactor.

    A fixed pool of I/O domains ([io_threads], default = shards) each
    multiplexes many non-blocking connections via [Unix.select]:
    partial frames accumulate across reads, responses drain with
    non-blocking writes (a slow reader gets backpressure — past a
    high-water mark the loop stops reading from it), so the domain count
    is independent of the connection count.

    Each request is answered while its frame is parsed, on the loop
    that decoded it, so replies leave in request order without a queue.
    Each loop is one of the paper's sequential processes: [Get_stamp]
    and a lease's anchor run their getTS right there, on the loop's own
    {!Svc.Client.Direct} handle over one shared context (register
    store, tick, pid counter).  The start tick is read before the
    program and the end tick claimed with one fetch-and-add after it.
    For a long-lived object loop [i] is pid [i], whichever connections
    it serves; a one-shot object draws a fresh pid per getTS, and once
    [n] are spent each further getTS gets an [Err].  The trade-off:
    while a loop runs a burst of expensive getTS, its other
    connections' [Ping]/[Stats]/[Compare] wait behind the burst
    (DESIGN.md §14).

    Loop 0 also accepts: the listen socket is in its [select] set, and
    each new fd goes to a loop (connection id mod io_threads) through a
    lock-free mailbox plus one byte on that loop's wake pipe, so no loop
    polls.  An accepted fd at or above [FD_SETSIZE] (1024), which
    [select] cannot watch, is closed at once and counted in {!refused}.

    Stamps are codec-encoded straight into the send buffer, and
    [Compare] payloads are parsed with the implementation's strict
    {!Codec}.  Applying [Make] to an implementation without a codec
    raises [Invalid_argument] ({!Codec.for_impl}), so it can never reach
    a socket.

    Anchors on demand: a [Get_range k] lease is one anchor getTS plus [k]
    end ticks reserved after it executed
    ({!Svc.Client.Direct.reserve_ticks}, DESIGN.md §14–15).  Nothing
    runs while nobody asks.

    Every count has one writer, the loop whose work it counts, and is a
    plain [int] that any domain may read.  The [Stats] reply carries two
    entries per I/O loop [i]: a shard entry ([served] is the getTS
    programs the loop ran, [batches] the parse passes that ran at least
    one, [max_batch] the most programs in one pass) and a connection
    entry with [cn_slot = i] (its live connections, requests, stamps,
    leases and bytes), the same numbers as the [c<i>.*] telemetry
    gauges.  The gauge count is fixed by [io_threads], however many
    connections come and go.  Loop 0, which accepts, also counts the
    connections accepted ({!conns_total}) and {!refused}. *)

module Make (T : Timestamp.Intf.S) : sig
  type t

  val start :
    ?shards:int ->
    ?io_threads:int ->
    addr:Conn.addr ->
    n:int ->
    unit ->
    t
  (** Provisions [T.num_registers ~n] shared registers, binds and listens
      on [addr] (an existing Unix socket path is unlinked first; TCP sets
      [SO_REUSEADDR]), and spawns the [io_threads] I/O loops — the only
      domains it starts, independent of connection count and of leases.
      [shards] (default 1) is only the default for [io_threads].  A
      long-lived object needs [n >= io_threads], one pid per loop;
      otherwise [Invalid_argument] naming both numbers is raised before
      any fd exists.  On bind/listen failure the exception is re-raised;
      if the listen socket or a loop's wake pipe lands on an fd at or
      above [FD_SETSIZE], it fails with [Failure] naming the fd.  If a
      loop's [Domain.spawn] fails, the start is undone as by {!stop}
      (loops joined, fds closed, a Unix path unlinked) before the
      exception is re-raised. *)

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
  (** Frames the loops have answered (the shutdown summary). *)

  val conns_total : t -> int
  (** Cumulative connections accepted (the shutdown summary). *)

  val net_sources : t -> (string * (unit -> float)) list
  (** Per I/O loop [i], the
      [c<i>.{conns,requests,stamps,leases,bytes_in,bytes_out}] gauges,
      safe to sample from any domain.  [conns] is the loop's live
      connection count. *)

  val attach_telemetry : t -> Obs.Timeseries.t -> unit
  (** Registers per I/O loop [i] the [s<i>.served] and [s<i>.batches]
      gauges (as in the [Stats] reply), {!net_sources}, the
      [net.refused] gauge and the listen address / io_threads
      metadata. *)
end
