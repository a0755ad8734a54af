(** Lock-free intrusive multi-producer single-consumer inbox, the one
    each {!Service} shard runs.

    Producers [push] with a CAS loop onto a Treiber stack; the single
    consumer [drain]s the whole inbox with one [Atomic.exchange] — one
    atomic operation per batch, not per request — and reverses it in
    place to FIFO order.  Concurrent drains would split the FIFO order.
    The caller's node type carries the link, so a push allocates
    nothing. *)

module type NODE = sig
  type t

  val nil : t
  (** Ends every chain (compared physically); never pushed. *)

  val next : t -> t

  val set_next : t -> t -> unit
end

module Make (N : NODE) : sig
  type t

  val create : unit -> t

  val push : t -> N.t -> unit
  (** Lock-free; safe from any domain.  Overwrites the node's link. *)

  val drain : t -> N.t
  (** Empties the inbox and returns its nodes oldest-first, linked
      through [N.next] and ending in [N.nil].  Single consumer only. *)

  val is_empty : t -> bool
end
