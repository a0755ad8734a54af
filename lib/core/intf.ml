(** Interface of unbounded timestamp objects (paper, Section 2).

    A timestamp object supports [getTS()], which outputs a timestamp, and
    [compare(t1, t2)], which returns a boolean.  The {e only} requirement is:
    if a getTS instance [g1] returning [t1] happens before a getTS instance
    [g2] returning [t2], then [compare t1 t2 = true] and
    [compare t2 t1 = false].  Timestamps of concurrent calls may be ordered
    arbitrarily (both comparisons may even return [false]).

    [getTS] is expressed as a shared-memory program ({!Shm.Prog.t}) so the
    same implementation runs under the deterministic simulator, under the
    covering-argument adversaries, and on real OCaml domains.  [compare]
    never accesses shared memory in any of the paper's algorithms, so it is
    an ordinary pure function here. *)

type order = [ `Strict_weak | `Strict_partial | `General ]
(** What kind of relation an implementation's [compare_ts] is: a fact
    about the implementation, not a setting.  It picks the path of
    {!Checker.check_timed}, which stays exact only while the declaration
    holds.
    - [`Strict_weak]: irreflexive, transitive, and incomparability
      ([not (compare_ts a b)] and [not (compare_ts b a)]) is transitive
      too, as for any order on an extracted key (Lamport's integers,
      Algorithm 3's lexicographic [(rnd, turn)]).  The checker compares
      each call with one maximal earlier call.
    - [`Strict_partial]: irreflexive and transitive only, as strict
      pointwise dominance of vectors, whose incomparability is not
      transitive ([[1,0]] and [[2,0]] are both incomparable with
      [[0,1]], yet ordered).  The checker compares each call with the
      maximal elements of the earlier calls.
    - [`General]: no claim beyond the specification (a fuzz mutant's
      twisted compare); the checker compares every happens-before
      pair. *)

module type S = sig
  include Shm.Obj_intf.S

  val compare_ts : result -> result -> bool
  (** The [compare] method.  Must be consistent with happens-before as
      described above.  Pure: accesses no shared memory. *)

  val order : order
  (** See {!type-order}. *)

  val equal_ts : result -> result -> bool

  val pp_ts : Format.formatter -> result -> unit
end
