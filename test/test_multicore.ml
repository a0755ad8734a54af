(* Real-parallelism tests: the same programs on OCaml 5 domains. *)

let exec_matches_sim () =
  (* the atomic interpreter and the simulator agree on solo runs *)
  let n = 6 in
  List.iter
    (fun (Timestamp.Registry.Impl (module T)) ->
       let regs =
         Multicore.Exec.make_regs ~num:(T.num_registers ~n)
           ~init:(T.init_value ~n)
       in
       let atomic_ts =
         List.init n (fun pid ->
             Multicore.Exec.run ~regs (T.program ~n ~pid ~call:0))
       in
       let module H = Timestamp.Harness.Make (T) in
       let _, sim_ts = H.run_sequential ~n in
       List.iter2
         (fun a b ->
            Util.check_bool (T.name ^ ": same results") true (T.equal_ts a b))
         atomic_ts sim_ts)
    Timestamp.Registry.all

let exec_counts_ops () =
  let p = Shm.Prog.bind (Shm.Prog.write 0 1) (fun () -> Shm.Prog.read 0) in
  let regs = Multicore.Exec.make_regs ~num:1 ~init:0 in
  let v, ops = Multicore.Exec.run_counting ~regs p in
  Util.check_int "value" 1 v;
  Util.check_int "ops" 2 ops

(* A Lamport getTS is n reads and one write.  A collect returned through
   binds allocates per operation in proportion to its bind depth (64.5
   words per operation at n=64 when built on [fold_range] under three
   binds); built on [Shm.Prog.fold_reads] it is about 10. *)
let lamport_alloc_per_op () =
  let module L = Timestamp.Lamport in
  let n = 64 and rounds = 200 in
  let regs =
    Multicore.Exec.make_regs ~num:(L.num_registers ~n) ~init:(L.init_value ~n)
  in
  let _, ops =
    Multicore.Exec.run_counting ~regs (L.program ~n ~pid:0 ~call:0)
  in
  let w0 = Gc.minor_words () in
  for call = 1 to rounds do
    Sys.opaque_identity (Multicore.Exec.run ~regs (L.program ~n ~pid:0 ~call))
    |> ignore
  done;
  let w1 = Gc.minor_words () in
  let per_op = (w1 -. w0) /. float_of_int (rounds * ops) in
  Util.check_int "lamport n=64: register operations per getTS" (n + 1) ops;
  Util.check_bool
    (Printf.sprintf "lamport n=64: %.1f minor words per register operation"
       per_op)
    true (per_op <= 16.)

(* [n] client domains, one process each, running getTS on one register
   store (one call each for a one-shot object); the checker verdict
   covers the happens-before order the domains observed. *)
let stress impl_name (module T : Timestamp.Intf.S) ~n ~calls () =
  let impl = Timestamp.Registry.Impl (module T) in
  let cfg = Svc.Loadgen.stress impl ~n ~calls in
  let r = Svc.Loadgen.run impl cfg in
  Util.check_int (impl_name ^ ": every call served")
    (n * cfg.requests_per_client) r.lg_total;
  Option.iter (fun e -> Alcotest.fail (impl_name ^ ": " ^ e)) r.lg_violation

let stress_repeated impl_name m ~n ~calls ~rounds () =
  for _ = 1 to rounds do
    stress impl_name m ~n ~calls ()
  done

let suite =
  ( "multicore",
    [ Util.case "atomic interpreter matches simulator" exec_matches_sim;
      Util.case "run_counting counts" exec_counts_ops;
      Util.case "lamport getTS allocates O(1) words per register op"
        lamport_alloc_per_op;
      Util.slow_case "stress sqrt one-shot"
        (stress_repeated "sqrt" (module Timestamp.Sqrt.One_shot) ~n:8 ~calls:1
           ~rounds:20);
      Util.slow_case "stress simple one-shot"
        (stress_repeated "simple" (module Timestamp.Simple_oneshot) ~n:8
           ~calls:1 ~rounds:20);
      Util.slow_case "stress lamport"
        (stress_repeated "lamport" (module Timestamp.Lamport) ~n:4 ~calls:100
           ~rounds:5);
      Util.slow_case "stress efr"
        (stress_repeated "efr" (module Timestamp.Efr) ~n:4 ~calls:100 ~rounds:5);
      Util.slow_case "stress vector"
        (stress_repeated "vector" (module Timestamp.Vector_ts) ~n:4 ~calls:50
           ~rounds:5) ] )
