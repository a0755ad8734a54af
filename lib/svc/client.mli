(** Transport-agnostic client surface for the timestamp service.

    Every way of obtaining stamps — executing getTS inline on a shared
    register store, submitting to the in-process {!Service} shards, or
    talking to a remote server over a socket ([Net.Client]) — implements
    the one signature {!S}, so the load generator, the CLI, and the tests
    drive any transport through the same four calls.

    A {!stamp} carries the timestamp value itself plus the happens-before
    accounting ([st_start_tick]/[st_end_tick] against the service's global
    tick) that {!Timestamp.Checker.check_timed} consumes, and the
    completion time [st_resp_us] used for latency measurement. *)

(** Raised by networked transports on connection or protocol failure.
    The in-process transports below never raise it. *)
exception Error of string

(** One completed getTS call, transport-agnostic. *)
type 'r stamp = {
  st_pid : int;  (** process id that executed the operation *)
  st_call : int;  (** per-process call number (long-lived objects) *)
  st_start_tick : int;  (** global tick when the operation began *)
  st_end_tick : int;  (** global tick reserved at completion *)
  st_ts : 'r;  (** the timestamp value *)
  st_resp_us : float;
      (** completion time, {!Obs.Clock.now_us}: monotonic microseconds *)
  st_shard : int;  (** serving shard (0 when unsharded) *)
}

(** The client API.  All implementations are safe to use from one domain
    per client handle; distinct handles may live in distinct domains. *)
module type S = sig
  type result

  type t

  val stamp : t -> result stamp
  (** One getTS call, synchronous. *)

  val stamp_async : t -> unit -> result stamp
  (** Begin a getTS call now; the returned thunk completes it.  Pipelined
      transports overlap calls issued this way (complete thunks in issue
      order); transports with nothing to overlap may complete eagerly. *)

  val stamp_batch : t -> int -> result stamp list
  (** [stamp_batch t k] issues [k] calls as one burst (single flush /
      submit burst where the transport supports it) and returns the
      completions in issue order. *)

  val compare : t -> result stamp -> result stamp -> bool
  (** The object's timestamp order.  [compare_ts] is pure (paper model:
      comparisons touch no shared registers), so every transport decides
      locally. *)

  val close : t -> unit
end

(** No service at all: the client executes getTS itself on a shared
    register store — the direct shape of E13, and the request
    path of [Net.Server], whose I/O loops run each decoded getTS this way.
    One getTS step, {!get_ts}, reads the start tick before the program
    runs and claims its end tick with one fetch-and-add after it, so a
    response received before another call's invocation has the smaller
    tick.  {!stamp} is that step plus the response time.
    {!stamp_batch} runs its [k] steps back to back and reads the clock
    once, after the last: the burst's stamps share one [st_resp_us]. *)
module Direct (T : Timestamp.Intf.S) : sig
  include S with type result = T.result

  val get_ts : t -> result stamp
  (** One getTS without reading the clock: [st_resp_us] is 0.  The
      step [Net.Server]'s loops run per decoded request, whose replies
      carry no response time. *)

  type ctx
  (** Shared register store + global tick + pid allocator. *)

  val create_ctx : n:int -> unit -> ctx
  (** Samples {!Obs.Hooks.armed} once: when set, every {!stamp} on this
      context runs under {!Multicore.Exec.run_obs}, reporting its
      register operations tagged with its pid, as the service's workers
      do. *)

  val connect : ctx -> t
  (** For a long-lived object each connect claims the next process id
      (at most [n] connects; [Invalid_argument] beyond).  For a one-shot
      object the handle is free and each {!stamp} consumes a fresh pid
      ([Invalid_argument] once [n] are spent). *)

  val reserve_ticks : ctx -> int -> int
  (** [reserve_ticks ctx k] claims [k] consecutive end ticks with one
      fetch-and-add and returns the first: the epoch-range lease
      primitive of [Net.Server].  Call it only {e after} the getTS
      anchoring the leased stamps has executed, so no leased tick
      predates an operation that had already completed.  Raises
      [Invalid_argument] when [k <= 0]. *)
end

(** The in-process service transport: one {!Service} session per client
    handle, pooled submit/await underneath. *)
module Inproc (T : Timestamp.Intf.S) : sig
  include S with type result = T.result

  val connect : Service.Make(T).t -> t
  (** Opens a session on the running service.  Sessions are pinned to
      shards round-robin at open, so open order determines placement
      (and, for long-lived objects, process-id assignment). *)
end
