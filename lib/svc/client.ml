exception Error of string

type 'r stamp = {
  st_pid : int;
  st_call : int;
  st_start_tick : int;
  st_end_tick : int;
  st_ts : 'r;
  st_resp_us : float;
  st_shard : int;
}

module type S = sig
  type result

  type t

  val stamp : t -> result stamp

  val stamp_async : t -> unit -> result stamp

  val stamp_batch : t -> int -> result stamp list

  val compare : t -> result stamp -> result stamp -> bool

  val close : t -> unit
end

(* ------------------------------------------------------------------ *)
(* Direct: no service at all — the client executes getTS itself on a
   shared register store (the unbatched baseline of E13/E15).           *)

module Direct (T : Timestamp.Intf.S) = struct
  type result = T.result

  type ctx = {
    regs : T.value Atomic.t array;
    tick : int Atomic.t;
    next_pid : int Atomic.t;
    n : int;
    armed : bool;  (* Obs.Hooks.armed, sampled once at creation *)
  }

  let create_ctx ~n () =
    if n <= 0 then invalid_arg "Client.Direct.create_ctx: n must be positive";
    { regs =
        Multicore.Exec.make_regs ~num:(T.num_registers ~n)
          ~init:(T.init_value ~n);
      tick = Atomic.make 0;
      next_pid = Atomic.make 0;
      n;
      armed = Obs.Hooks.armed () }

  type t = { ctx : ctx; pid : int; mutable call : int }

  let connect ctx =
    match T.kind with
    | `Long_lived ->
      let pid = Atomic.fetch_and_add ctx.next_pid 1 in
      if pid >= ctx.n then
        invalid_arg
          (Printf.sprintf
             "Client.Direct.connect: %s supports at most n=%d clients" T.name
             ctx.n);
      { ctx; pid; call = 0 }
    | `One_shot -> { ctx; pid = -1; call = 0 }

  let fresh_pid ctx =
    let pid = Atomic.fetch_and_add ctx.next_pid 1 in
    if pid >= ctx.n then
      invalid_arg
        (Printf.sprintf
           "Client.Direct.stamp: one-shot %s exhausted its n=%d process ids"
           T.name ctx.n);
    pid

  (* The one getTS step.  The start tick is read before the program and
     the end tick claimed with one fetch-and-add after it; no clock is
     read, so [st_resp_us] is 0 until a caller sets it. *)
  let get_ts c =
    let ctx = c.ctx in
    let pid, call =
      match T.kind with
      | `One_shot -> (fresh_pid ctx, 0)
      | `Long_lived ->
        let call = c.call in
        c.call <- call + 1;
        (c.pid, call)
    in
    let start_tick = Atomic.get ctx.tick in
    let program = T.program ~n:ctx.n ~pid ~call in
    let ts =
      if ctx.armed then Multicore.Exec.run_obs ~pid ~regs:ctx.regs program
      else Multicore.Exec.run ~regs:ctx.regs program
    in
    let end_tick = Atomic.fetch_and_add ctx.tick 1 in
    { st_pid = pid; st_call = call; st_start_tick = start_tick;
      st_end_tick = end_tick; st_ts = ts; st_resp_us = 0.; st_shard = 0 }

  let stamp c = { (get_ts c) with st_resp_us = Obs.Clock.now_us () }

  (* Same discipline as [get_ts]'s end tick: the caller reserves only
     after the getTS anchoring the leased stamps has executed. *)
  let reserve_ticks ctx k =
    if k <= 0 then
      invalid_arg "Client.Direct.reserve_ticks: k must be positive";
    Atomic.fetch_and_add ctx.tick k

  (* execution is the request: nothing to overlap, so "async" is eager *)
  let stamp_async c =
    let s = stamp c in
    fun () -> s

  (* A burst runs its getTS back to back with no clock read between
     calls, and gives the stamps one response time, read after the last
     one, as a service worker does for a chunk.  [ts_cli stress] runs
     each client as one such burst, so its domains spend as much of
     their time as they can inside a getTS, overlapping each other's. *)
  let stamp_batch c k =
    let rec go j rev = if j = k then rev else go (j + 1) (get_ts c :: rev) in
    let rev = go 0 [] in
    let resp_us = Obs.Clock.now_us () in
    List.rev_map (fun s -> { s with st_resp_us = resp_us }) rev

  let compare _ a b = T.compare_ts a.st_ts b.st_ts

  let close _ = ()
end

(* ------------------------------------------------------------------ *)
(* Inproc: the in-process service transport, wrapping one session's
   pooled submit/await path.                                            *)

module Inproc (T : Timestamp.Intf.S) = struct
  module Service_ = Service.Make (T)

  type result = T.result

  type t = { session : Service_.session }

  let connect svc = { session = Service_.open_session svc }

  let of_resp (r : Service_.resp) =
    { st_pid = r.pid; st_call = r.call; st_start_tick = r.start_tick;
      st_end_tick = r.end_tick; st_ts = r.ts; st_resp_us = r.resp_us;
      st_shard = r.shard }

  let stamp c = of_resp (Service_.get_ts c.session)

  let stamp_async c =
    let ticket = Service_.submit c.session in
    fun () ->
      let r = Service_.await ticket in
      Service_.release c.session ticket;
      of_resp r

  let stamp_batch c k =
    let tickets = List.init k (fun _ -> Service_.submit c.session) in
    List.map
      (fun ticket ->
         let r = Service_.await ticket in
         Service_.release c.session ticket;
         of_resp r)
      tickets

  let compare _ a b = T.compare_ts a.st_ts b.st_ts

  let close _ = ()
end
