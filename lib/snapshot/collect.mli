(** Collects and the obstruction-free double-collect scan.

    A {e collect} reads a range of registers one by one and returns the
    resulting view; it is not atomic.  A {e successful double collect}
    (Afek, Attiya, Dolev, Gafni, Merritt, Shavit 1993) repeats collects
    until two contiguous views are identical; the scan can then be
    linearized between the last two collects.  Algorithm 4 of the paper
    uses exactly this scan, and its use there is wait-free because every
    getTS performs boundedly many writes (Section 6.1). *)

exception Starved
(** Raised when [max_rounds] successive collects all differ. *)

val collect : lo:int -> hi:int -> ('v, 'v array) Shm.Prog.t
(** [collect ~lo ~hi] reads registers [lo..hi] in increasing order and
    returns the view (index 0 of the result is register [lo]). *)

val collect_then :
  lo:int -> hi:int -> ('v array -> ('v, 'a) Shm.Prog.t) -> ('v, 'a) Shm.Prog.t
(** [collect_then ~lo ~hi k] is [bind (collect ~lo ~hi) k] without the
    bind: the last read's continuation hands the view to [k], so the
    collect's reads are built once (see the cost model in {!Shm.Prog}). *)

val scan :
  ?max_rounds:int ->
  equal:('v -> 'v -> bool) ->
  lo:int -> hi:int ->
  unit ->
  ('v, 'v array) Shm.Prog.t
(** Double-collect scan of registers [lo..hi]: collect until two contiguous
    views agree ([equal] component-wise), then return that view.  Raises
    {!Starved} after [max_rounds] collects (default: unlimited, which is
    obstruction-free but not wait-free in general). *)
