(* The exploration engine v2 (state dedup + sleep-set independence
   reduction + domain parallelism) against the exhaustive v1 baseline
   ([~dedup:false ~reduction:false]): identical verdicts on correct
   implementations, identical (and replayable) counterexamples on broken
   ones, under every flag combination. *)

let flag_combos =
  (* dedup, reduction, domains *)
  [ ("dedup", true, false, 1);
    ("reduction", false, true, 1);
    ("dedup+reduction", true, true, 1);
    ("dedup+reduction+domains", true, true, 3) ]

let checker_leaf (type v r)
    (module T : Timestamp.Intf.S with type value = v and type result = r)
    (cfg : (v, r) Shm.Sim.t) =
  Result.is_ok (Timestamp.Checker.check_sim (module T) cfg)

let run_engine (type v r) ?invariant ?max_paths ~dedup ~reduction ~domains
    (module T : Timestamp.Intf.S with type value = v and type result = r) ~n
    ~calls =
  let supplier ~pid ~call = T.program ~n ~pid ~call in
  let cfg =
    Shm.Sim.create ~n ~num_regs:(T.num_registers ~n) ~init:(T.init_value ~n)
  in
  Shm.Explore.explore ~max_steps:400 ?max_paths ~dedup ~reduction ~domains
    ~supplier ~calls_per_proc:(Array.make n calls) ?invariant
    ~leaf_check:(checker_leaf (module T))
    cfg

(* Every flag combination agrees with the exhaustive baseline on the three
   implementations the paper's Sections 5 and 6 verify by exploration. *)
let verdicts_match_baseline () =
  let check (type v r) name
      (module T : Timestamp.Intf.S with type value = v and type result = r)
      ~n ~calls =
    let baseline =
      run_engine ~dedup:false ~reduction:false ~domains:1 (module T) ~n ~calls
    in
    (match baseline with
     | Shm.Explore.Ok stats ->
       Util.check_bool (name ^ ": baseline exhaustive") true stats.exhaustive
     | Shm.Explore.Counterexample _ ->
       Alcotest.failf "%s: baseline found an unexpected counterexample" name);
    List.iter
      (fun (label, dedup, reduction, domains) ->
         match
           baseline, run_engine ~dedup ~reduction ~domains (module T) ~n ~calls
         with
         | Shm.Explore.Ok b, Shm.Explore.Ok s ->
           Util.check_bool
             (Printf.sprintf "%s/%s: still exhaustive" name label)
             b.exhaustive s.exhaustive;
           Util.check_bool
             (Printf.sprintf "%s/%s: expanded no more than baseline" name
                label)
             true
             (s.expanded <= b.expanded)
         | _, Shm.Explore.Counterexample _ ->
           Alcotest.failf "%s/%s: engine disagrees with baseline" name label
         | Shm.Explore.Counterexample _, _ -> assert false)
      flag_combos
  in
  check "simple-oneshot n=2" (module Timestamp.Simple_oneshot) ~n:2 ~calls:1;
  check "simple-oneshot n=3" (module Timestamp.Simple_oneshot) ~n:3 ~calls:1;
  check "efr n=2" (module Timestamp.Efr) ~n:2 ~calls:2;
  check "efr n=3" (module Timestamp.Efr) ~n:3 ~calls:1;
  check "sqrt n=2" (module Timestamp.Sqrt.One_shot) ~n:2 ~calls:1

(* The dedup+reduction engine must beat the baseline by a wide margin on a
   workload of test_explore scale; this is the PR's performance contract
   (issue acceptance: >= 10x fewer expanded configurations). *)
let reduction_factor_at_least_10x () =
  match
    ( run_engine ~dedup:false ~reduction:false ~domains:1
        (module Timestamp.Simple_oneshot) ~n:3 ~calls:1,
      run_engine ~dedup:true ~reduction:true ~domains:1
        (module Timestamp.Simple_oneshot) ~n:3 ~calls:1 )
  with
  | Shm.Explore.Ok base, Shm.Explore.Ok fast ->
    Util.check_bool
      (Printf.sprintf "expanded %d -> %d is >= 10x" base.expanded
         fast.expanded)
      true
      (base.expanded >= 10 * fast.expanded);
    Util.check_bool "dedup or sleep pruning did fire" true
      (fast.dedup_hits > 0 && fast.sleep_skips > 0)
  | _ -> Alcotest.fail "unexpected counterexample"

(* A family of seeded fault injections into Simple_oneshot: seed mod 3 = 0
   keeps the object intact, otherwise one seed-chosen process returns a
   corrupted (too large) timestamp.  The property: all engines agree with
   the exhaustive baseline on the verdict and the at_leaf flag, whatever
   the seed does. *)
let injected (type v) ~seed
    (module T : Timestamp.Intf.S with type value = v and type result = int) :
  (module Timestamp.Intf.S with type value = v and type result = int) =
  (module struct
    include (val (module T
                   : Timestamp.Intf.S
                   with type value = v and type result = int))

    let name = Printf.sprintf "%s-injected-%d" T.name seed

    let program ~n ~pid ~call =
      let p = T.program ~n ~pid ~call in
      if seed mod 3 <> 0 && pid = seed mod n then
        Shm.Prog.map (fun ts -> ts + 1_000_000) p
      else p
  end)

let outcome_signature = function
  | Shm.Explore.Ok _ -> "ok"
  | Shm.Explore.Counterexample { at_leaf; _ } ->
    if at_leaf then "cex-leaf" else "cex-invariant"

let injected_bug_property =
  Util.qtest ~count:30 "engines agree on seeded fault injections"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
       let n = 3 in
       let m = injected ~seed (module Timestamp.Simple_oneshot) in
       let baseline =
         run_engine ~dedup:false ~reduction:false ~domains:1 m ~n
           ~calls:1
       in
       List.for_all
         (fun (_, dedup, reduction, domains) ->
            outcome_signature
              (run_engine ~dedup ~reduction ~domains m ~n ~calls:1)
            = outcome_signature baseline)
         flag_combos)

(* Regression: a deterministic injected bug is caught under every flag
   combination, the counterexample is found at a leaf, and the returned
   schedule replays to a configuration the checker rejects. *)
let injected_bug_caught_all_flags () =
  let n = 3 in
  let m = injected ~seed:1 (module Timestamp.Simple_oneshot) in
  let (module B) = m in
  let supplier ~pid ~call = B.program ~n ~pid ~call in
  let cfg0 =
    Shm.Sim.create ~n ~num_regs:(B.num_registers ~n) ~init:(B.init_value ~n)
  in
  List.iter
    (fun (label, dedup, reduction, domains) ->
       match run_engine ~dedup ~reduction ~domains m ~n ~calls:1 with
       | Shm.Explore.Ok _ ->
         Alcotest.failf "%s: injected bug not caught" label
       | Shm.Explore.Counterexample { schedule; at_leaf; _ } ->
         Util.check_bool (label ^ ": caught at a leaf") true at_leaf;
         let replayed = Shm.Schedule.apply supplier cfg0 schedule in
         Util.check_bool (label ^ ": replay violates the checker") false
           (checker_leaf m replayed))
    (("baseline", false, false, 1) :: flag_combos)

(* Invariant (non-leaf) counterexamples survive the engines too: same
   verdict, not at a leaf, replayable. *)
let invariant_cex_all_flags () =
  let n = 2 in
  let supplier ~pid ~call = Timestamp.Lamport.program ~n ~pid ~call in
  let cfg0 = Shm.Sim.create ~n ~num_regs:2 ~init:0 in
  let invariant cfg = Shm.Sim.reg cfg 0 = 0 (* fails after p0's write *) in
  List.iter
    (fun (label, dedup, reduction, domains) ->
       match
         Shm.Explore.explore ~dedup ~reduction ~domains ~supplier
           ~calls_per_proc:[| 1; 1 |] ~invariant cfg0
       with
       | Shm.Explore.Ok _ -> Alcotest.failf "%s: invariant cannot hold" label
       | Shm.Explore.Counterexample { schedule; at_leaf; _ } ->
         Util.check_bool (label ^ ": not at leaf") false at_leaf;
         Util.check_bool (label ^ ": replay violates") false
           (invariant (Shm.Schedule.apply supplier cfg0 schedule)))
    (("baseline", false, false, 1) :: flag_combos)

(* The path budget is checked by the per-node step both engines share: a
   budget of 100 schedules (the instance has 6040) ends the search early,
   sequential or parallel, with a non-exhaustive verdict and never a
   counterexample. *)
let path_budget_both_engines () =
  List.iter
    (fun domains ->
       match
         run_engine ~max_paths:100 ~dedup:true ~reduction:true ~domains
           (module Timestamp.Simple_oneshot) ~n:4 ~calls:1
       with
       | Shm.Explore.Ok s ->
         Util.check_bool
           (Printf.sprintf "domains=%d: budget makes it non-exhaustive"
              domains)
           false s.exhaustive;
         Util.check_bool
           (Printf.sprintf "domains=%d: some schedules completed" domains)
           true (s.paths > 0)
       | Shm.Explore.Counterexample _ ->
         Alcotest.failf "domains=%d: the budget produced a counterexample"
           domains)
    [ 1; 2 ]

(* The parallel engine is deterministic: two runs return identical
   counterexample schedules (lowest-indexed frontier node wins). *)
let parallel_deterministic () =
  let run () =
    match
      run_engine ~dedup:true ~reduction:true ~domains:3
        (injected ~seed:1 (module Timestamp.Simple_oneshot))
        ~n:3 ~calls:1
    with
    | Shm.Explore.Counterexample { schedule; _ } -> schedule
    | Shm.Explore.Ok _ -> Alcotest.fail "expected a counterexample"
  in
  Util.check_bool "same schedule across parallel runs" true (run () = run ())

let suite =
  ( "explore-v2",
    [ Util.slow_case "all flag combos match the exhaustive baseline"
        verdicts_match_baseline;
      Util.slow_case "dedup+reduction expands >= 10x fewer configurations"
        reduction_factor_at_least_10x;
      injected_bug_property;
      Util.case "injected bug caught under every flag combination"
        injected_bug_caught_all_flags;
      Util.case "invariant counterexamples under every flag combination"
        invariant_cex_all_flags;
      Util.case "path budget ends both engines early"
        path_budget_both_engines;
      Util.case "parallel counterexample reporting is deterministic"
        parallel_deterministic ] )
