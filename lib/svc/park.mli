(** Park/wake: the one way a domain on a request's path waits for work.

    A waiter {e parks}: it sets an atomic [parked] flag, re-checks its
    condition, and only then blocks — on a condition variable ({!create})
    or, for a [select] reactor, on that loop's self-pipe ({!of_pipe}).  A
    waker makes the condition true {e before} calling {!wake}, which costs
    one atomic load when nobody is parked.  OCaml atomics are sequentially
    consistent, so the waiter's re-check and the waker's load of [parked]
    cannot both miss: a wakeup is never lost (DESIGN.md §8; model-checked
    as [Svc.Model.Park]).

    One waiter per park; any number of wakers. *)

type t

val create : unit -> t
(** A park that blocks on a condition variable (stdlib [Mutex]/
    [Condition]); waited on with {!wait}. *)

val of_pipe : Unix.file_descr -> t
(** A park whose {!wake} writes one byte to [fd], the write end of a
    non-blocking self-pipe whose read end the waiter includes in its
    [select] set.  The waiter brackets its re-check and [select] with
    {!arm} and {!disarm}. *)

val wait : t -> ('a -> bool) -> 'a -> unit
(** [wait t ready x] returns once [ready x] holds: a few polls (a
    constant measured on the benchmark workloads), then
    park-and-recheck rounds.  Allocates nothing when [ready] is a
    closed (top-level) function.  Condition-variable parks only;
    raises [Invalid_argument] on a pipe park. *)

val arm : t -> unit
(** Announce an imminent block (sets [parked]).  The caller must then
    re-check its condition and block only if it still fails. *)

val disarm : t -> unit
(** Clear [parked]: after the re-check found work, or once woken. *)

val wake : t -> unit
(** Signal the waiter if it is parked; otherwise one atomic load.  Call
    only after making the waiter's condition true. *)
