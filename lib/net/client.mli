(** Networked client transport: {!Svc.Client.S} over the {!Frame}
    protocol, with request coalescing and epoch-range lease caching.

    With [lease = 1] (the default) every stamp is one round trip
    ([Get_stamp]) — though {!stamp_batch} still coalesces a burst into a
    single flush and reads the pipelined responses back in order.  With
    [lease = k > 1] a cache miss fetches one [Get_range] and the next [k]
    stamps are minted locally from the reserved tick range: one round
    trip amortized over [k] stamps, EpicEpoch-style.

    Minted stamps share the lease's anchor timestamp, identity and start
    tick and take distinct reserved end ticks, so they remain sound for
    {!Timestamp.Checker.check_timed} (the server reserves the range only
    after the anchor executed — DESIGN.md §14).  A stamp is minted only
    from a range the server granted: a burst longer than one grant (past
    [Frame.max_lease], or a grant shorter than asked) fetches another
    whenever the last one runs out.

    All failures (connect, protocol, server-side errors) raise
    {!Svc.Client.Error}.  A handle belongs to one domain at a time.
    Applying [Make] raises [Invalid_argument] when [T] has no wire
    codec ({!Codec.for_impl}). *)

module Make (T : Timestamp.Intf.S) : sig
  include Svc.Client.S with type result = T.result

  val connect : ?lease:int -> Conn.addr -> t
  (** Connects, then handshakes with {!Frame.Ping} and verifies the
      server runs implementation [T.name] with the matching {!Codec}
      (raises {!Svc.Client.Error} otherwise).  [lease] must be in
      [[1, Frame.max_lease]]. *)

  val compare_remote : t -> result Svc.Client.stamp -> result Svc.Client.stamp -> bool
  (** Same order as {!compare} but evaluated server-side (one round
      trip) — for cross-checking the local comparison. *)

  val server_info : t -> Frame.server_info
  (** From the connect-time handshake. *)

  val stats : t -> Frame.shard_stat list * Frame.conn_stat list
  (** The server's [Stats] reply: one {!Frame.shard_stat} per I/O loop,
      one {!Frame.conn_stat} per counter slot. *)

  val stop_server : t -> unit
  (** Sends {!Frame.Stop} and waits for the {!Frame.Stopping} ack.  The
      server's owner (e.g. [ts_cli serve]) observes the flag and runs the
      graceful shutdown. *)
end

val run :
  Timestamp.Registry.impl ->
  ?lease:int ->
  ?stop_server:bool ->
  Conn.addr ->
  Svc.Loadgen.cfg ->
  Svc.Loadgen.report
(** [run impl ~lease ~stop_server addr cfg] drives the live server at
    [addr] with [cfg]'s workload, the wire twin of {!Svc.Loadgen.run}
    ([cfg.mode] and [cfg.n] are the server's business and ignored).  In
    order: {!Svc.Loadgen.validate} refuses a bad [cfg] before any socket
    opens (and {!Make.connect} a bad [lease]); a probe connects and
    handshakes; [cfg.clients] handles connect in client order on the
    calling domain, each with [lease]; {!Svc.Loadgen.Drive} runs them.
    The report has one shard entry per server I/O loop: [sr_served] and
    [sr_batches] are this run's, the difference of the probe's [Stats]
    before the clients connect and after they close ([sr_max_batch] is
    the loop's lifetime maximum).  Every handle opened is closed on
    every path.  With [stop_server] (default [false]), the probe sends
    {!Frame.Stop} once the run has returned its report.  Raises
    [Invalid_argument] for a refused [cfg], [lease] or an implementation
    without a codec, and {!Svc.Client.Error} for connect and protocol
    failures. *)
