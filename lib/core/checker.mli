(** Dynamic verification of the timestamp specification (Section 2).

    For every pair of completed getTS instances [g1, g2] of an execution
    returning [t1, t2]: if [g1] happens before [g2] then
    [compare t1 t2 = true] and [compare t2 t1 = false].  Additionally flags
    reflexive compares ([compare t t = true]) and, on the exhaustive scan,
    {e symmetric} ones ([compare t1 t2] and [compare t2 t1] both true for
    distinct completed calls), neither of which any strict order produces.
    Concurrent pairs are otherwise unconstrained, as in the paper: both
    comparisons may return [false]. *)

type violation = {
  op1 : Shm.History.op;
  op2 : Shm.History.op;
  t1 : string;  (** pretty-printed timestamp of [op1] *)
  t2 : string;
  reason : string;
}

val pp_violation : Format.formatter -> violation -> unit

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

val check_calls :
  order:Intf.order ->
  compare_ts:('r -> 'r -> bool) ->
  pp:(Format.formatter -> 'r -> unit) ->
  op:(int -> Shm.History.op) ->
  starts:int array ->
  ends:int array ->
  'r array ->
  (int, violation) result
(** The happens-before and irreflexivity rules over the tick-derived
    happens-before order of an execution, given as columns: call [i]
    started at tick [starts.(i)], ended at tick [ends.(i)] and returned
    [stamps.(i)] (the last argument), and call [c1] happens before [c2]
    when [ends.(c1) < starts.(c2)].  Backs every verdict: the load
    generator's ([Svc.Loadgen], and so [ts_cli stress]), which hands over
    the columns its clients wrote, and, through {!check_sim}, the
    simulator's.  The columns are read in place and
    never written; [op i] only names call [i] in a violation.  Raises
    [Invalid_argument] unless the three columns have one length.

    The ticks themselves are checked too.  Every serving path takes its
    end ticks from one counter, so no two calls share an end tick, and
    a call's start tick, read before it began, never exceeds its end
    tick.  A witness that breaks either rule orders nothing soundly.

    First an O(n) pass rejects a call whose start tick exceeds its end
    tick with ["start tick exceeds end tick at"], and any
    [compare_ts t t] with ["compare is not irreflexive at"].  Then
    [order] picks the path, and each path rejects two calls that share
    an end tick with ["shares its end tick with"]:
    - [`General] compares every happens-before pair, and every other
      pair's end ticks, then rejects [compare_ts] holding both ways
      between two calls with ["compare holds symmetrically between"]:
      O(n{^ 2}).  It sorts nothing, and is the oracle the other paths
      are tested against.
    - The other two sort the calls by end tick and by start tick with a
      stable sort: one counting sort for a column whose ticks span fewer
      than [2n] values, as one counter's do, and at most 6 radix passes
      over any other int ticks.  They compare each end tick with the
      next in that order, and sweep the calls by start tick: the calls
      that happen before the current one form a growing prefix of the
      end order.
    - [`Strict_weak] keeps [top], a maximal element of the prefix
      (replaced by [x] when [compare_ts top x]), and compares the current
      call with [top] only: O(n) compares.  In a strict weak order every
      element of the prefix is below [top] or incomparable with it, so
      [top < o2] gives [x < o2] for the whole prefix, and asymmetry gives
      [not (o2 < x)].
    - [`Strict_partial] keeps the frontier, the maximal elements of the
      prefix, and compares the current call with each of them: every
      prefix element is a frontier element or below one, so transitivity
      gives the rest.  Until a violation the frontier's elements are
      pairwise incomparable, hence pairwise concurrent, so it never holds
      more calls than were in flight at one instant: O(n w) compares for
      [w] calls in flight.

    The sweeps' verdict is exact, not a sample, as long as [compare_ts]
    is the relation [order] declares ({!Intf.order}).  [Ok pairs] counts
    every happens-before pair (the sum of the prefix lengths) on every
    path; the sweeps count the pairs they do not visit. *)

val check_timed :
  order:Intf.order ->
  compare_ts:('r -> 'r -> bool) ->
  pp:(Format.formatter -> 'r -> unit) ->
  'r timed list ->
  (int, violation) result
(** {!check_calls} over {!timed} records. *)

val check_sim :
  (module Intf.S with type value = 'v and type result = 'r) ->
  ('v, 'r) Shm.Sim.t ->
  (int, violation) result
(** The [`General] scan of {!check_calls} over a simulator
    configuration's completed calls, in response order, each spanning
    its invocation and response event times.  It runs the scan, not a
    sweep, whatever [T.order] declares: the scan assumes nothing of
    [T.compare_ts], whose faults fuzzing and exploration exist to find;
    a simulated history holds at most a few hundred calls; and each
    sweep allocates two [n]-word orders and, for a history this size, a
    count array of up to 2048 words, which every explored leaf would
    pay. *)
