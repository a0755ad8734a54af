(** Park/wake: the one way a domain on a request's path waits for work.

    A waiter {e parks}: it sets an atomic [parked] flag, re-checks its
    condition, and only then blocks on a condition variable (stdlib
    [Mutex]/[Condition]).  A waker makes the condition true {e before}
    calling {!wake}, which costs one atomic load when nobody is parked.
    OCaml atomics are sequentially consistent, so the waiter's re-check
    and the waker's load of [parked] cannot both miss: a wakeup is never
    lost (DESIGN.md §8; model-checked as [Svc.Model.Park]).

    One waiter per park; any number of wakers. *)

type t

val create : unit -> t

val wait : t -> ('a -> bool) -> 'a -> unit
(** [wait t ready x] returns once [ready x] holds: one check, then
    park-and-recheck rounds, with no spin between.  Allocates nothing
    when [ready] is a closed (top-level) function. *)

val wake : t -> unit
(** Signal the waiter if it is parked; otherwise one atomic load.  Call
    only after making the waiter's condition true. *)
