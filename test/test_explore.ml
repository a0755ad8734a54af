(* Exhaustive schedule exploration for small instances: every interleaving
   of every registered timestamp implementation at n = 2 satisfies the
   specification, and larger instances for the cheap algorithms. *)

let checker_leaf (type v r)
    (module T : Timestamp.Intf.S with type value = v and type result = r)
    (cfg : (v, r) Shm.Sim.t) =
  Result.is_ok (Timestamp.Checker.check_sim (module T) cfg)

let exhaustive_impl (type v r) ?(max_paths = 2_000_000)
    (module T : Timestamp.Intf.S with type value = v and type result = r) ~n
    ~calls ~expect_exhaustive () =
  let supplier ~pid ~call = T.program ~n ~pid ~call in
  let cfg =
    Shm.Sim.create ~n ~num_regs:(T.num_registers ~n) ~init:(T.init_value ~n)
  in
  match
    Shm.Explore.explore ~max_steps:400 ~max_paths ~supplier
      ~calls_per_proc:(Array.make n calls)
      ~leaf_check:(checker_leaf (module T))
      cfg
  with
  | Shm.Explore.Ok stats ->
    if expect_exhaustive then
      Util.check_bool
        (Printf.sprintf "%s n=%d: exhaustive" T.name n)
        true stats.exhaustive;
    Util.check_bool "explored something" true (stats.paths > 0)
  | Shm.Explore.Counterexample { schedule; _ } ->
    Alcotest.failf "%s n=%d: counterexample of %d actions" T.name n
      (List.length schedule)

let all_impls_n2 () =
  List.iter
    (fun (Timestamp.Registry.Impl (module T)) ->
       (* the snapshot-based object embeds scans whose retries blow up the
          schedule tree; it gets a capped, non-exhaustive sweep *)
       let deep = T.name = "snapshot-longlived" in
       exhaustive_impl
         ~max_paths:(if deep then 200_000 else 2_000_000)
         (module T) ~n:2 ~calls:1 ~expect_exhaustive:(not deep) ())
    Timestamp.Registry.all

let lamport_n3_two_calls () =
  (* n=2 with two calls each is exhaustive (184k schedules); n=3 single
     calls has 17M schedules, so it gets a capped sweep *)
  exhaustive_impl (module Timestamp.Lamport) ~n:2 ~calls:2
    ~expect_exhaustive:true ();
  exhaustive_impl ~max_paths:300_000 (module Timestamp.Lamport) ~n:3 ~calls:1
    ~expect_exhaustive:false ()

let simple_n4 () =
  (* n=3 is exhaustive (756756 schedules); n=4 has ~10^10, capped sweep *)
  exhaustive_impl (module Timestamp.Simple_oneshot) ~n:3 ~calls:1
    ~expect_exhaustive:true ();
  exhaustive_impl ~max_paths:200_000 (module Timestamp.Simple_oneshot) ~n:4
    ~calls:1 ~expect_exhaustive:false ()

let simple_swap_n3 () =
  exhaustive_impl (module Timestamp.Simple_swap) ~n:3 ~calls:1
    ~expect_exhaustive:true ()

let efr_n3 () =
  exhaustive_impl (module Timestamp.Efr) ~n:3 ~calls:1 ~expect_exhaustive:true ()

(* The no-repair ablation variant survives n=2 exhaustively: its bug needs
   at least phase 3, confirming why the directed 8-process interleaving in
   Test_ablation is necessary. *)
let no_repair_survives_n2 () =
  exhaustive_impl
    (module Timestamp.Sqrt_variants.No_repair)
    ~n:2 ~calls:1 ~expect_exhaustive:true ()

(* Exhaustively check bakery's mutual exclusion for n=2: the occupancy
   counter register never exceeds 1 in any reachable configuration.  Wait
   loops make the schedule tree infinite, so the exploration is truncated
   by depth and honestly reported as non-exhaustive. *)
let bakery_occupancy_invariant () =
  let n = 2 in
  let supplier ~pid ~call = Apps.Bakery.program ~n ~pid ~call in
  let cfg = Apps.Bakery.create ~n in
  let occupancy_ok cfg =
    match Shm.Sim.reg cfg (Apps.Bakery.occupancy_reg ~n) with
    | Apps.Bakery.Occupancy c -> c >= 0 && c <= 1
    | Apps.Bakery.Slot _ -> true
  in
  match
    Shm.Explore.explore ~max_steps:60 ~max_paths:150_000 ~supplier
      ~calls_per_proc:(Array.make n 1) ~invariant:occupancy_ok cfg
  with
  | Shm.Explore.Ok stats ->
    Util.check_bool "visited many configurations" true
      (stats.configurations > 10_000)
  | Shm.Explore.Counterexample { schedule; _ } ->
    Alcotest.failf "mutual exclusion violated after %d actions"
      (List.length schedule)

(* A deliberately broken object shows the explorer finds minimal
   counterexamples: a "timestamp" that returns a constant fails as soon as
   two sequential calls complete. *)
let broken_object_caught () =
  let module Broken = struct
    type value = int

    type result = int

    let name = "broken-constant"

    let kind = `Long_lived

    let num_registers ~n:_ = 1

    let init_value ~n:_ = 0

    let program ~n:_ ~pid:_ ~call:_ = Shm.Prog.map (fun _ -> 7) (Shm.Prog.read 0)

    let compare_ts (a : int) b = a < b

    let order = `General

    let equal_ts = Int.equal

    let pp_ts = Format.pp_print_int
  end in
  let supplier ~pid ~call = Broken.program ~n:2 ~pid ~call in
  let cfg = Shm.Sim.create ~n:2 ~num_regs:1 ~init:0 in
  match
    Shm.Explore.explore ~supplier ~calls_per_proc:[| 1; 1 |]
      ~leaf_check:(checker_leaf (module Broken))
      cfg
  with
  | Shm.Explore.Ok _ -> Alcotest.fail "broken object not caught"
  | Shm.Explore.Counterexample { schedule; at_leaf; _ } ->
    Util.check_bool "caught at a leaf" true at_leaf;
    (* the lexicographically first failing schedule is the fully
       sequential one: 3 actions per call *)
    Util.check_int "minimal counterexample" 6 (List.length schedule)

let invariant_counterexample_replayable () =
  (* an invariant failure returns a schedule that replays to a violating
     configuration *)
  let supplier ~pid ~call = Timestamp.Lamport.program ~n:2 ~pid ~call in
  let cfg = Shm.Sim.create ~n:2 ~num_regs:2 ~init:0 in
  let invariant cfg = Shm.Sim.reg cfg 0 = 0 (* fails after p0's write *) in
  match
    Shm.Explore.explore ~supplier ~calls_per_proc:[| 1; 1 |] ~invariant cfg
  with
  | Shm.Explore.Ok _ -> Alcotest.fail "invariant cannot hold"
  | Shm.Explore.Counterexample { schedule; cfg = bad; at_leaf } ->
    Util.check_bool "not at leaf" false at_leaf;
    let replayed = Shm.Schedule.apply supplier cfg schedule in
    Util.check_int "replay matches" (Shm.Sim.reg bad 0)
      (Shm.Sim.reg replayed 0);
    Util.check_bool "violates" false (invariant replayed)

let suite =
  ( "explore",
    [ Util.slow_case "all implementations exhaustively at n=2" all_impls_n2;
      Util.slow_case "lamport deeper instances" lamport_n3_two_calls;
      Util.slow_case "simple one-shot n=3 / n=4" simple_n4;
      Util.slow_case "simple swap n=3" simple_swap_n3;
      Util.slow_case "efr n=3" efr_n3;
      Util.slow_case "no-repair variant survives n=2" no_repair_survives_n2;
      Util.slow_case "bakery occupancy invariant (bounded)"
        bakery_occupancy_invariant;
      Util.case "broken object caught with minimal schedule"
        broken_object_caught;
      Util.case "invariant counterexamples replay" invariant_counterexample_replayable ] )
