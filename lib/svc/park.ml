(* Park/wake: how every waiter on a request's path sleeps until there is
   work, without polling and without losing a wakeup.

   A waiter announces itself by setting [parked], re-checks its condition,
   and only then blocks.  A waker first makes the condition true, then
   reads [parked] and signals only if it is set.  OCaml atomics are
   sequentially consistent, so of the two pairs (set parked; read
   condition) and (write condition; read parked) one side always sees the
   other: either the waiter's re-check finds the work, or the waker finds
   the waiter parked and signals it.  A wakeup that arrives between the
   waiter's re-check and its block is kept as a token (condition-variable
   parks) or as a byte in the pipe (pipe parks), so blocking afterwards
   returns at once.

   Whichever waker clears [parked] (true -> false) owns the signal, so a
   burst of completions against one parked waiter signals once.  A
   waiter never trusts a wakeup: it loops on its own condition, so a
   stale token costs one extra turn, never a missed one. *)

type cv = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable token : bool;  (* a wake not yet consumed; under [lock] *)
}

type how = Cv of cv | Pipe of Unix.file_descr

type t = { parked : bool Atomic.t; how : how }

(* Polls of the condition before parking.  Parking and waking cost a
   futex round trip (or a pipe write plus a [select] return) on top of a
   context switch; a few polls let a back-to-back completion skip both.
   Chosen by measuring the wire-stamp and oneshot-inproc workloads on a
   2-vCPU host: 0, 50 and 300 polls were indistinguishable within the
   host's run-to-run noise; 2000 cut p50 by 10-25% but raised CPU per
   stamp by 7-25% on wire-stamp and by 18-48% on oneshot-inproc, where
   the spinning client shares the two cores with the worker. *)
let spin = 50

let create () =
  let cv =
    { lock = Mutex.create (); cond = Condition.create (); token = false }
  in
  { parked = Atomic.make false; how = Cv cv }

let of_pipe fd = { parked = Atomic.make false; how = Pipe fd }

let byte = Bytes.make 1 '!'

let signal t =
  match t.how with
  | Cv c ->
    Mutex.lock c.lock;
    c.token <- true;
    Condition.signal c.cond;
    Mutex.unlock c.lock
  | Pipe fd -> (
      (* a full pipe already holds a wakeup *)
      try ignore (Unix.write fd byte 0 1) with Unix.Unix_error _ -> ())

let wake t =
  if Atomic.get t.parked && Atomic.compare_and_set t.parked true false then
    signal t

let arm t = Atomic.set t.parked true

let disarm t = Atomic.set t.parked false

let block c =
  Mutex.lock c.lock;
  while not c.token do
    Condition.wait c.cond c.lock
  done;
  c.token <- false;
  Mutex.unlock c.lock

(* Top-level recursion with the state as an argument: [wait] allocates
   nothing, so the service's pooled await path stays allocation-free. *)
let rec park t c ready x =
  arm t;
  if ready x then disarm t
  else begin
    block c;
    disarm t;
    if not (ready x) then park t c ready x
  end

let rec wait_spin t ready x k =
  if not (ready x) then
    if k > 0 then begin
      Domain.cpu_relax ();
      wait_spin t ready x (k - 1)
    end
    else
      match t.how with
      | Cv c -> park t c ready x
      | Pipe _ -> invalid_arg "Park.wait: a pipe park is waited on by select"

let wait t ready x = wait_spin t ready x spin
