(** Dynamic verification of the timestamp specification (Section 2).

    For every pair of completed getTS instances [g1, g2] of an execution
    returning [t1, t2]: if [g1] happens before [g2] then
    [compare t1 t2 = true] and [compare t2 t1 = false].  Additionally flags
    reflexive compares ([compare t t = true]) and {e symmetric} ones
    ([compare t1 t2] and [compare t2 t1] both true for distinct completed
    calls), neither of which any strict order produces.  Concurrent pairs
    are otherwise unconstrained, as in the paper: both comparisons may
    return [false]. *)

type violation = {
  op1 : Shm.History.op;
  op2 : Shm.History.op;
  t1 : string;  (** pretty-printed timestamp of [op1] *)
  t2 : string;
  reason : string;
}

val pp_violation : Format.formatter -> violation -> unit

val check :
  compare_ts:('r -> 'r -> bool) ->
  pp:(Format.formatter -> 'r -> unit) ->
  hist:Shm.History.t ->
  results:(Shm.History.op * 'r) list ->
  (int, violation) result
(** [Ok pairs] reports how many happens-before pairs were checked. *)

type 'r timed = {
  td_pid : int;
  td_call : int;
  td_start : int;  (** logical clock read before the call's first step *)
  td_end : int;  (** logical clock bumped after the call's last step *)
  td_ts : 'r;
}
(** One completed getTS with its interval endpoints on a linearizable
    logical clock, so [td_end r1 < td_start r2] soundly witnesses that
    [r1] happens before [r2]. *)

val check_timed :
  order:[ `Strict_weak | `General ] ->
  compare_ts:('r -> 'r -> bool) ->
  pp:(Format.formatter -> 'r -> unit) ->
  'r timed list ->
  (int, violation) result
(** {!check}'s happens-before and irreflexivity rules over the
    tick-derived happens-before order of a real parallel run.  Backs
    the load generator's verdict ([Svc.Loadgen], and so [ts_cli stress]).

    First an O(n) pass rejects any [compare_ts t t] with ["compare is not
    irreflexive at"].  Then both paths sort the [n] records by end tick and
    sweep them by start tick: the calls that happen before the current one
    form a growing prefix of the end-sorted array.
    - [order = `General] compares the current call with every call of
      its prefix: O(n log n + pairs), quadratic when most calls are
      ordered.  This is the oracle.
    - [order = `Strict_weak] keeps [top], a maximal element of the prefix
      (replaced by [x] when [compare_ts top x]), and compares the current
      call with [top] only: O(n log n).  The verdict is still exact, not a
      sample: in a strict weak order every element of the prefix is below
      [top] or incomparable with it, so [top < o2] gives [x < o2] for the
      whole prefix, and asymmetry gives [not (o2 < x)].  This holds only
      if the [compare_ts] passed in is a strict weak order, i.e. the one an
      implementation declares with [order = `Strict_weak] ({!Intf.S}).

    [Ok pairs] counts every happens-before pair (the sum of the prefix
    lengths) on both paths; the sweep counts the pairs it does not
    visit. *)

val check_sim :
  (module Intf.S with type value = 'v and type result = 'r) ->
  ('v, 'r) Shm.Sim.t ->
  (int, violation) result
(** {!check} applied to a simulator configuration's history and results. *)
