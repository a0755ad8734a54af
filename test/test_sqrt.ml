(* Tests specific to the Section-6 sqrt algorithm (Algorithms 3-4). *)

module T = Timestamp.Sqrt.One_shot
module H = Timestamp.Harness.Make (T)

let registers_formula () =
  (* ceil(2 sqrt M): smallest m with m^2 >= 4M *)
  List.iter
    (fun (calls, expect) ->
       Util.check_int
         (Printf.sprintf "m(%d)" calls)
         expect
         (Timestamp.Sqrt.registers_for_calls calls))
    [ (1, 2); (2, 3); (4, 4); (5, 5); (9, 6); (16, 8); (25, 10); (100, 20) ]

(* The paper's sequential behaviour: the getTS that starts phase k returns
   (k, 0) and the j-th getTS after that returns (k, j); so phase k serves
   exactly k timestamps and sequential timestamps are
   (1,0) (2,0) (2,1) (3,0) (3,1) (3,2) ... *)
let sequential_phase_pattern () =
  let expected n =
    let rec go k acc remaining =
      if remaining = 0 then List.rev acc
      else
        let take = min k remaining in
        let phase = List.init take (fun j -> (k, j)) in
        go (k + 1) (List.rev_append phase acc) (remaining - take)
    in
    go 1 [] n
  in
  List.iter
    (fun n ->
       let _, ts = H.run_sequential ~n in
       Alcotest.(check (list (pair int int)))
         (Printf.sprintf "n=%d" n)
         (expected n) ts)
    [ 1; 2; 3; 6; 10; 16; 25 ]

let compare_lexicographic () =
  Util.check_bool "(1,5) < (2,0)" true (T.compare_ts (1, 5) (2, 0));
  Util.check_bool "(2,1) < (2,2)" true (T.compare_ts (2, 1) (2, 2));
  Util.check_bool "(2,2) < (2,1)" false (T.compare_ts (2, 2) (2, 1));
  Util.check_bool "(3,0) < (2,9)" false (T.compare_ts (3, 0) (2, 9));
  Util.check_bool "equal" false (T.compare_ts (2, 2) (2, 2))

(* The claims checker drives random executions and verifies the Section-6
   claims in their register-observable form; no violations allowed. *)
let claims_hold_one_shot =
  Util.qtest ~count:30 "Section 6 claims hold (one-shot)"
    QCheck2.Gen.(pair (int_range 1 40) (int_bound 100_000))
    (fun (n, seed) ->
       let stats =
         Timestamp.Sqrt_claims.run_random ~n ~seed ~total_calls:n
           ~calls_per_proc:1 ()
       in
       stats.violations = [])

let claims_hold_bounded_longlived =
  Util.qtest ~count:20 "Section 6 claims hold (M-bounded long-lived)"
    QCheck2.Gen.(pair (int_range 2 8) (int_bound 100_000))
    (fun (n, seed) ->
       (* Section 7 generalization: n processes, M = 4n total calls *)
       let stats =
         Timestamp.Sqrt_claims.run_random ~n ~seed ~total_calls:(4 * n)
           ~calls_per_proc:4 ()
       in
       stats.violations = [])

let space_bound_exact () =
  (* Theorem 1.3 space: across seeds, the max written register index never
     exceeds ceil(2 sqrt n), and the final sentinel is never written. *)
  List.iter
    (fun n ->
       List.iter
         (fun seed ->
            let stats =
              Timestamp.Sqrt_claims.run_random ~n ~seed ~total_calls:n
                ~calls_per_proc:1 ()
            in
            Util.check_bool
              (Printf.sprintf "n=%d seed=%d within bound" n seed)
              true
              (stats.max_written_index <= stats.m))
         Util.seeds)
    [ 4; 9; 16; 36; 64 ]

let phase_count_bound () =
  (* Phi (Phi+1) / 2 <= 2M, hence Phi < 2 sqrt M. *)
  List.iter
    (fun n ->
       let stats =
         Timestamp.Sqrt_claims.run_random ~n ~seed:7 ~total_calls:n
           ~calls_per_proc:1 ()
       in
       Util.check_bool
         (Printf.sprintf "n=%d phases" n)
         true
         (stats.phases * (stats.phases + 1) / 2 <= 2 * n))
    [ 4; 16; 64; 144 ]

let exhaustion_detected () =
  (* Driving more calls than provisioned must raise, not corrupt. *)
  let module Tiny =
    Timestamp.Sqrt.With_calls (struct
      let total_calls = 2
    end)
  in
  let n = 8 in
  let m = Tiny.num_registers ~n in
  let cfg =
    Shm.Sim.create ~n ~num_regs:m ~init:(Tiny.init_value ~n)
  in
  let sup ~pid ~call = Tiny.program ~n ~pid ~call in
  (* sequential calls by distinct processes until the object runs out *)
  let rec drive cfg pid =
    if pid >= n then Alcotest.fail "expected Register_space_exhausted"
    else
      let cfg =
        Shm.Sim.invoke cfg ~pid ~program:(fun ~call -> sup ~pid ~call)
      in
      match Shm.Sim.run_solo ~fuel:10_000 cfg pid with
      | Some cfg -> drive cfg (pid + 1)
      | None -> Alcotest.fail "fuel"
      | exception Timestamp.Sqrt.Register_space_exhausted -> ()
  in
  drive cfg 0

let with_calls_space () =
  (* Section 7 / E8: registers depend on M, not n. *)
  let module M100 =
    Timestamp.Sqrt.With_calls (struct
      let total_calls = 100
    end)
  in
  Util.check_int "M=100 -> 20 registers" 20 (M100.num_registers ~n:5);
  Util.check_bool "long-lived" true (M100.kind = `Long_lived)

let wait_free_step_bound () =
  (* every solo getTS finishes well within a small-polynomial bound *)
  List.iter
    (fun n ->
       let stats =
         Timestamp.Sqrt_claims.run_random ~n ~seed:3 ~total_calls:n
           ~calls_per_proc:1 ()
       in
       Util.check_bool
         (Printf.sprintf "n=%d steps/call" n)
         true
         (stats.max_steps_per_call <= 20 * stats.m * stats.m))
    [ 4; 16; 64 ]

let ids_distinct_across_processes () =
  (* getTS-ids are (pid, call); check pp and equality plumbing *)
  let a : Timestamp.Sqrt.id = { pid = 1; seq_no = 0 } in
  let b : Timestamp.Sqrt.id = { pid = 1; seq_no = 1 } in
  Util.check_bool "distinct" true (a <> b)

(* An oracle for any rewrite of getTS's local work: on one store, in
   pid order, 5,000 getTS at n = 20000 (m = 283 registers) perform
   exactly this many register operations, and the longest one exactly
   this many.  A rewrite that keeps the algorithm's reads and writes
   keeps both numbers. *)
let sequential_operation_counts () =
  let n = 20000 and calls = 5000 in
  Util.check_int "registers" 283 (T.num_registers ~n);
  let regs =
    Multicore.Exec.make_regs ~num:(T.num_registers ~n) ~init:(T.init_value ~n)
  in
  let total = ref 0 and longest = ref 0 in
  for pid = 0 to calls - 1 do
    let _, ops = Multicore.Exec.run_counting ~regs (T.program ~n ~pid ~call:0) in
    total := !total + ops;
    longest := max !longest ops
  done;
  Util.check_int "operations for 5,000 getTS" 735_402 !total;
  Util.check_int "operations in the longest getTS" 863 !longest

let suite =
  ( "sqrt",
    [ Util.case "ceil(2 sqrt M) registers" registers_formula;
      Util.case "sequential phase pattern" sequential_phase_pattern;
      Util.case "compare is lexicographic" compare_lexicographic;
      claims_hold_one_shot;
      claims_hold_bounded_longlived;
      Util.case "space bound holds across seeds" space_bound_exact;
      Util.case "phase count bound" phase_count_bound;
      Util.case "register exhaustion raises" exhaustion_detected;
      Util.case "With_calls sizes by M" with_calls_space;
      Util.case "wait-free step bound" wait_free_step_bound;
      Util.case "getTS ids distinct" ids_distinct_across_processes;
      Util.case "sequential register operations at n=20000"
        sequential_operation_counts ] )
