(* Ablation of Algorithm 4's repair rule (lines 10-11), following the
   discussion in Section 6.1 of the paper.

   The "never overwrite" variant is subtly incorrect: the paper sketches an
   interleaving where two processes race to start phase k with an old write
   between their scans, after which process [a] returns (k, j+1) and a
   later process [b] returns (k, 1) — ordered calls with inverted
   timestamps.  Random schedules essentially never find this (see the EA
   experiment), so the test below constructs the interleaving directly:

     y  pauses poised on an old phase-1 write to R[1]
     x1 starts phase 1, x2 starts phase 2, x3 takes turn (2,1)
     p  scans for phase 3, pauses poised on its R[3] write
     y  fires its stale write to R[1]
     q  scans (seeing y's write), pauses poised on its R[3] write
     p  publishes R[3] (stale view: R[1] invalid)
     a  completes: skips invalid R[1], takes turn (3,2)
     q  publishes R[3] (fresh view: R[1] valid again!)
     b  completes: takes turn (3,1)  --  a happened before b, (3,1) < (3,2)

   The same milestone schedule run against the paper's algorithm (and the
   eager variant) self-corrects and stays consistent. *)

let y = 0 and x1 = 1 and x2 = 2 and x3 = 3
let p = 4 and q = 5 and a = 6 and b = 7

let n = 8

let until_poised_write cfg pid reg =
  let rec go cfg fuel =
    if fuel = 0 then Alcotest.failf "p%d never poised to write R[%d]" pid (reg + 1)
    else
      match Shm.Sim.covers cfg pid with
      | Some r when r = reg -> cfg
      | _ -> go (Shm.Sim.step cfg pid) (fuel - 1)
  in
  go cfg 10_000

let run_scenario (module V : Timestamp.Sqrt_variants.VARIANT) =
  let supplier ~pid ~call = V.program ~n ~pid ~call in
  let invoke cfg pid =
    Shm.Sim.invoke cfg ~pid ~program:(fun ~call -> supplier ~pid ~call)
  in
  let solo cfg pid =
    match Shm.Sim.run_solo ~fuel:10_000 (invoke cfg pid) pid with
    | Some cfg -> cfg
    | None -> Alcotest.failf "p%d did not finish" pid
  in
  let finish cfg pid =
    match Shm.Sim.run_solo ~fuel:10_000 cfg pid with
    | Some cfg -> cfg
    | None -> Alcotest.failf "p%d did not finish" pid
  in
  let cfg =
    Shm.Sim.create ~n ~num_regs:(V.num_registers ~n) ~init:(V.init_value ~n)
  in
  let cfg = until_poised_write (invoke cfg y) y 0 in
  let cfg = solo cfg x1 in
  let cfg = solo cfg x2 in
  let cfg = solo cfg x3 in
  let cfg = until_poised_write (invoke cfg p) p 2 in
  let cfg = Shm.Sim.step cfg y (* the old write *) in
  let cfg = until_poised_write (invoke cfg q) q 2 in
  let cfg = finish cfg p in
  let cfg = solo cfg a in
  let cfg = finish cfg q in
  let cfg = solo cfg b in
  Timestamp.Checker.check_sim (module V) cfg

let no_repair_violates () =
  match run_scenario (module Timestamp.Sqrt_variants.No_repair) with
  | Error v ->
    (* the violating pair is exactly the paper's: a's (3,2) vs b's (3,1) *)
    Util.check_bool "a and b involved" true
      (v.op1.pid = a && v.op2.pid = b || (v.op1.pid = b && v.op2.pid = a))
  | Ok _ ->
    Alcotest.fail
      "Section 6.1 interleaving should break the no-repair variant"

let paper_algorithm_survives () =
  match run_scenario (module Timestamp.Sqrt.One_shot) with
  | Ok _ -> ()
  | Error v ->
    Alcotest.failf "paper algorithm violated: %s"
      (Format.asprintf "%a" Timestamp.Checker.pp_violation v)

let eager_repair_survives () =
  match run_scenario (module Timestamp.Sqrt_variants.Eager_repair) with
  | Ok _ -> ()
  | Error v ->
    Alcotest.failf "eager variant violated: %s"
      (Format.asprintf "%a" Timestamp.Checker.pp_violation v)

(* Random schedules don't find the bug — documenting why the directed test
   above exists (and that the variant is not trivially broken). *)
let random_search_misses_it () =
  match
    Timestamp.Sqrt_variants.hunt_violation
      (module Timestamp.Sqrt_variants.No_repair)
      ~n:8 ~seeds:200
  with
  | None -> ()
  | Some (seed, v) ->
    (* finding one is fine too — it would only make the point stronger *)
    Printf.printf "random schedule %d found the violation: %s\n" seed v

(* The eager variant pays for its simplicity with extra writes. *)
let eager_costs_more_writes =
  Util.qtest ~count:25 "eager repair never writes less"
    QCheck2.Gen.(pair (int_range 8 32) (int_bound 100_000))
    (fun (n, seed) ->
       let w_stale, _ =
         Timestamp.Sqrt_variants.writes_of
           (module struct
             include Timestamp.Sqrt.One_shot
           end)
           ~n ~seed
       in
       let w_eager, _ =
         Timestamp.Sqrt_variants.writes_of
           (module Timestamp.Sqrt_variants.Eager_repair)
           ~n ~seed
       in
       (* same seed, same workload shape; eager does at least as many
          writes in the common case (schedules differ once a write diverges,
          so allow equality-or-more on average by checking >=) *)
       w_eager >= w_stale - (n / 4))

let eager_correct_random =
  Util.qtest ~count:30 "eager variant passes random checks"
    QCheck2.Gen.(pair (int_range 2 24) (int_bound 100_000))
    (fun (n, seed) ->
       let module H = Timestamp.Harness.Make (Timestamp.Sqrt_variants.Eager_repair) in
       let cfg = H.run_random ~invoke_prob:0.1 ~n ~seed () in
       Result.is_ok (H.check cfg))

let suite =
  ( "ablation",
    [ Util.case "Section 6.1 interleaving breaks no-repair" no_repair_violates;
      Util.case "paper algorithm survives the interleaving"
        paper_algorithm_survives;
      Util.case "eager repair survives the interleaving" eager_repair_survives;
      Util.slow_case "random search rarely finds it" random_search_misses_it;
      eager_costs_more_writes;
      eager_correct_random ] )
