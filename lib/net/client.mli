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
