(* Park/wake: how every waiter on a request's path sleeps until there is
   work, without polling and without losing a wakeup.

   A waiter announces itself by setting [parked], re-checks its condition,
   and only then blocks.  A waker first makes the condition true, then
   reads [parked] and signals only if it is set.  OCaml atomics are
   sequentially consistent, so of the two pairs (set parked; read
   condition) and (write condition; read parked) one side always sees the
   other: either the waiter's re-check finds the work, or the waker finds
   the waiter parked and signals it.  A wakeup that arrives between the
   waiter's re-check and its block is kept as a token, so blocking
   afterwards returns at once.

   Whichever waker clears [parked] (true -> false) owns the signal, so a
   burst of completions against one parked waiter signals once.  A
   waiter never trusts a wakeup: it loops on its own condition, so a
   stale token costs one extra turn, never a missed one. *)

type t = {
  parked : bool Atomic.t;
  lock : Mutex.t;
  cond : Condition.t;
  mutable token : bool;  (* a wake not yet consumed; under [lock] *)
}

let create () =
  { parked = Atomic.make false; lock = Mutex.create ();
    cond = Condition.create (); token = false }

let wake t =
  if Atomic.get t.parked && Atomic.compare_and_set t.parked true false
  then begin
    Mutex.lock t.lock;
    t.token <- true;
    Condition.signal t.cond;
    Mutex.unlock t.lock
  end

let block t =
  Mutex.lock t.lock;
  while not t.token do
    Condition.wait t.cond t.lock
  done;
  t.token <- false;
  Mutex.unlock t.lock

(* Top-level recursion with the state as an argument: [wait] allocates
   nothing, so the service's pooled await path stays allocation-free. *)
let rec park t ready x =
  Atomic.set t.parked true;
  if ready x then Atomic.set t.parked false
  else begin
    block t;
    Atomic.set t.parked false;
    if not (ready x) then park t ready x
  end

(* No spin before parking: 2000 polls cost 7-48% more CPU per stamp. *)
let wait t ready x = if not (ready x) then park t ready x
