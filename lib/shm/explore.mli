(** Exploration engine: exhaustive and reduced schedule checking for small
    instances.

    Random workloads sample the schedule space; this module enumerates it:
    at every configuration each enabled action (step a running process, or
    start the next call of a process with calls remaining) is explored.  An
    invariant is evaluated at every visited configuration, and a leaf check
    at every maximal configuration (no enabled actions).  The first failure
    is returned with the exact schedule that produces it, which replays
    deterministically.

    On top of the plain DFS the engine layers four accelerations, all on by
    default and all preserving verdicts:

    - {b state deduplication} ([dedup]): configurations are canonically
      fingerprinted ({!Sim.fingerprint}: registers, continuation identities,
      call counts, history) and a configuration reached again by a different
      interleaving is not re-expanded — unless the new visit has more
      remaining depth budget or a smaller sleep set than every previous
      visit, in which case it is re-expanded so that no state or transition
      within bounds is lost.

    - {b independence reduction} ([reduction]): a sleep-set partial-order
      reduction.  When two enabled actions have independent footprints
      ({!Schedule.independent} — e.g. they touch disjoint registers), only
      one of the two orders is explored; the commuted order provably reaches
      the same configuration.  Sleep sets never lose reachable
      configurations, so invariant and leaf verdicts are preserved exactly.

    - {b process-symmetry quotient} ([symmetry]): when several processes
      run structurally identical programs ({!Schedule.symmetry_classes}),
      the visited set is keyed by {!Sim.canonical_fingerprint} — the orbit
      of the configuration under within-class pid permutations — so up to
      [prod |class_i|!] isomorphic states share one entry.  The quotient is
      purely a deduplication key: the DFS always walks the concrete
      configurations it reached, so a reported counterexample schedule
      replays verbatim (the inverse-permutation mapping back to a concrete
      trace is the identity).  Sleep masks are mapped through the canonical
      permutation before dominance comparisons, keeping the combination
      with the independence reduction sound.  Inert when detection finds
      only singleton classes, or when [dedup] is off.

    - {b domain parallelism} ([domains]): subtrees are spread over worker
      domains.  The root region is expanded breadth-first — by the same
      per-node step as the sequential DFS, with the full
      invariant/dedup/sleep-set treatment — until it holds about 32
      frontier nodes per domain; the nodes are dealt round-robin into
      per-worker deques, and an idle worker steals from the {e back} of a
      victim's deque.  This balances at node granularity rather than the
      root's arity, which matters for symmetric workloads: at the root only
      invokes are enabled and they are mutually independent, so root-level
      sleep sets leave essentially one live root branch.  Each {e domain}
      owns one visited set, reused across every node it runs: a
      configuration one node expanded prunes dominated revisits from the
      domain's later nodes, which is sound by the same dominance rule as
      within a single DFS (the earlier node explored at least as much
      below it; a domain's set is reset after a node that failed or was
      cancelled).  Counterexample reporting stays deterministic: frontier
      expansion is sequential and breadth-first, so a failure found there
      is the unique first one in that order; among worker nodes the
      lowest frontier index wins, and a node is cancelled only when a
      lower-indexed node already found a counterexample.  Each worker
      domain gets its own [max_paths] budget, and [invariant]/[leaf_check]
      must be safe to call from several domains (pure functions are).
      Statistics (but never verdicts) can vary run to run in parallel
      mode: node-to-domain assignment depends on timing, which moves
      dedup hits between domains and changes their totals.

    The engine also feeds the instrumentation layer when a sink is attached
    ({!Obs.Hooks}): a histogram of visited frontier depths
    (["explore.depth"]), periodic per-domain expansion-counter samples, and
    one span per frontier node in parallel mode.  Disarmed, none of this
    allocates or runs.

    Programs with unbounded wait loops (e.g., mutual exclusion) generate
    infinitely deep schedules; [max_steps] truncates each path, and
    truncated paths are reported separately (their prefixes still went
    through the invariant).  [max_paths] bounds the total enumeration so
    callers can run partial sweeps of larger instances honestly: the result
    says whether the enumeration was exhaustive.

    Caveats of deduplication: fingerprints are 62-bit hashes, so a
    colliding pair of distinct configurations would wrongly merge (the
    probability is about [k^2 / 2^63] for [k] distinct states — negligible
    at model-checking scales, and [~dedup:false] restores the exact
    search).  The invariant and leaf check should depend only on what the
    fingerprint observes (registers, process states, call counts, history,
    results) — not on path-dependent telemetry such as {!Sim.steps} or
    {!Sim.written_set}. *)

type domain_stats = {
  d_branches : int;
      (** frontier nodes this worker domain ran, its own and stolen ones
          (always 1 in sequential mode) *)
  d_expanded : int;  (** configurations this domain expanded *)
  d_configurations : int;  (** configuration visits, including pruned ones *)
  d_dedup_hits : int;  (** visits answered by this domain's visited set *)
  d_sleep_skips : int;  (** transitions its sleep sets skipped *)
  d_canon_hits : int;
      (** dedup hits that crossed a symmetry orbit: the stored entry was
          created from a configuration with a different raw fingerprint *)
  d_steals : int;
      (** frontier nodes this domain took from another worker's deque
          (always 0 in sequential mode) *)
  d_seconds : float;  (** wall time this domain spent inside branches *)
}

type stats = {
  paths : int;  (** maximal (leaf) paths fully explored *)
  truncated_paths : int;  (** paths cut by [max_steps] *)
  configurations : int;
      (** total configuration visits, including visits pruned by
          deduplication *)
  expanded : int;
      (** configurations actually expanded (visits minus dedup prunes): the
          measure of work the accelerations save *)
  dedup_hits : int;  (** visits answered by the visited set *)
  sleep_skips : int;  (** transitions skipped by the independence rule *)
  canon_hits : int;
      (** dedup hits merging configurations from {e different} symmetry
          orbits — the extra pruning the quotient buys beyond plain
          fingerprint dedup.  Always [0] when [symmetric] is false. *)
  symmetric : bool;
      (** the symmetry quotient was active: [symmetry] was on, [dedup] was
          on, and {!Schedule.symmetry_classes} found at least one class
          with two or more processes *)
  exhaustive : bool;  (** no budget was hit *)
  seconds : float;  (** wall clock of the whole exploration *)
  per_domain : domain_stats array;
      (** one entry per worker domain, in domain order (a single entry in
          sequential mode).  Root-level accounting of the parallel frontier
          is counted in the aggregate fields but belongs to no worker, so
          the per-domain columns can sum to slightly less than the
          aggregates. *)
}

type ('v, 'r) outcome =
  | Ok of stats
  | Counterexample of {
      cfg : ('v, 'r) Sim.t;
      schedule : Schedule.action list;  (** replayable from the start *)
      at_leaf : bool;  (** failed the leaf check rather than the invariant *)
    }

val explore :
  ?max_steps:int ->
  ?max_paths:int ->
  ?dedup:bool ->
  ?reduction:bool ->
  ?symmetry:bool ->
  ?domains:int ->
  supplier:('v, 'r) Schedule.supplier ->
  calls_per_proc:int array ->
  ?invariant:(('v, 'r) Sim.t -> bool) ->
  ?leaf_check:(('v, 'r) Sim.t -> bool) ->
  ('v, 'r) Sim.t ->
  ('v, 'r) outcome
(** Defaults: [max_steps = 200], [max_paths = 1_000_000], [dedup = true],
    [reduction = true], [symmetry = true] (the quotient engages only when
    [dedup] is on and {!Schedule.symmetry_classes} detects a nontrivial
    class; otherwise it is inert and [stats.symmetric] is false),
    [domains = 1] (sequential), both checks accept everything.  The invariant runs on every configuration including the
    initial one; the leaf check runs on configurations where no action is
    enabled (all calls performed and everything quiescent).
    [~dedup:false ~reduction:false] is the exact naive DFS (the engine-v1
    baseline used for differential testing and benchmarking). *)
