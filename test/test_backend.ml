(* Register-backend equivalence: the boxed and padded-flat backends must
   be observationally identical, and the pooled service hot path must not
   allocate. *)

module B = Multicore.Backend

(* ------------------------------------------------------------------ *)
(* Flat backend unit behavior: immediates, interned values, growth.     *)

let flat_roundtrip () =
  let f = B.Flat.make ~num:4 ~init:0 in
  Util.check_int "length" 4 (B.Flat.length f);
  Util.check_int "init" 0 (B.Flat.get f 0);
  B.Flat.set f 1 42;
  Util.check_int "set/get" 42 (B.Flat.get f 1);
  B.Flat.set f 2 (-17);
  Util.check_int "negative" (-17) (B.Flat.get f 2);
  Util.check_int "exchange returns old" 42 (B.Flat.exchange f 1 7);
  Util.check_int "exchange wrote" 7 (B.Flat.get f 1);
  Util.check_int "no interning for ints" 0 (B.Flat.interned f)

let flat_interning () =
  (* boxed payloads round-trip through the intern table *)
  let f = B.Flat.make ~num:2 ~init:[ 0 ] in
  B.Flat.set f 0 [ 1; 2; 3 ];
  Util.check_bool "interned value round-trips" true
    (B.Flat.get f 0 = [ 1; 2; 3 ]);
  Util.check_bool "init round-trips" true (B.Flat.get f 1 = [ 0 ]);
  (* same structural value interns once *)
  B.Flat.set f 1 [ 1; 2; 3 ];
  Util.check_int "structural sharing" 2 (B.Flat.interned f);
  (* push the table past its initial 64-slot capacity *)
  for i = 0 to 199 do
    B.Flat.set f 0 [ i; i + 1 ]
  done;
  Util.check_bool "growth preserves lookup" true (B.Flat.get f 0 = [ 199; 200 ]);
  Util.check_bool "distinct values all interned" true (B.Flat.interned f > 64)

let flat_mixed_payloads () =
  (* a type whose values straddle the immediate/boxed split, as [Sqrt]'s
     [Bot | Cell _] does *)
  let f = B.Flat.make ~num:1 ~init:None in
  Util.check_bool "immediate constructor" true (B.Flat.get f 0 = None);
  B.Flat.set f 0 (Some 5);
  Util.check_bool "boxed constructor" true (B.Flat.get f 0 = Some 5);
  Util.check_bool "swap back to immediate" true
    (B.Flat.exchange f 0 None = Some 5);
  Util.check_bool "final" true (B.Flat.get f 0 = None)

(* ------------------------------------------------------------------ *)
(* Sequential differential: same results, same op counts, per impl.     *)

let store_differential () =
  let n = 6 in
  Util.over_impls @@ fun (Timestamp.Registry.Impl (module T)) ->
  let make backend =
    Multicore.Exec.make_store ~backend ~num:(T.num_registers ~n)
      ~init:(T.init_value ~n)
  in
  let boxed = make `Boxed and flat = make `Flat in
  for pid = 0 to n - 1 do
    let p () = T.program ~n ~pid ~call:0 in
    let ts_b, ops_b = Multicore.Exec.run_store_counting ~regs:boxed (p ()) in
    let ts_f, ops_f = Multicore.Exec.run_store_counting ~regs:flat (p ()) in
    Util.check_bool (T.name ^ ": same timestamp") true (T.equal_ts ts_b ts_f);
    Util.check_int (T.name ^ ": same op count") ops_b ops_f
  done

let functor_matches_store () =
  (* the generic functor path agrees with the specialized store path *)
  let module FB = Multicore.Exec.Make (B.Boxed) in
  let module FF = Multicore.Exec.Make ((B.Flat : B.REGISTER_BACKEND)) in
  let n = 5 in
  Util.over_impls @@ fun (Timestamp.Registry.Impl (module T)) ->
  let num = T.num_registers ~n and init = T.init_value ~n in
  let rb = FB.make_regs ~num ~init and rf = FF.make_regs ~num ~init in
  for pid = 0 to n - 1 do
    let ts_b = FB.run ~regs:rb (T.program ~n ~pid ~call:0) in
    let ts_f = FF.run ~regs:rf (T.program ~n ~pid ~call:0) in
    Util.check_bool (T.name ^ ": functor backends agree") true
      (T.equal_ts ts_b ts_f)
  done

(* ------------------------------------------------------------------ *)
(* Concurrent differential under Multicore.Stress: identical verdicts   *)
(* (and record counts) on both backends for the four registered         *)
(* implementations E13/E15 benchmark.                                   *)

let stress_both_backends impl_name (module T : Timestamp.Intf.S) ~n ~calls () =
  let module S = Multicore.Stress.Make (T) in
  List.iter
    (fun backend ->
       let records = S.run ~backend ~n ~calls () in
       let expected_calls =
         match T.kind with `One_shot -> 1 | `Long_lived -> calls
       in
       Util.check_int
         (impl_name ^ "/" ^ B.choice_tag backend ^ ": op records")
         (n * expected_calls) (List.length records);
       match S.check records with
       | Ok _ -> ()
       | Error e ->
         Alcotest.fail
           (impl_name ^ "/" ^ B.choice_tag backend ^ ": " ^ e))
    B.all_choices

(* ------------------------------------------------------------------ *)
(* Zero-alloc pin: the pooled submit/complete client path.              *)

let service_zero_alloc () =
  let module S = Svc.Service.Make (Timestamp.Lamport) in
  let svc = S.start ~shards:1 ~n:2 () in
  let session = S.open_session svc in
  (* warm up: fill the session pool and reach steady state *)
  for _ = 1 to 200 do
    ignore (S.await_ts session (S.submit session))
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 200 do
    ignore (S.await_ts session (S.submit session))
  done;
  let w1 = Gc.minor_words () in
  S.stop svc;
  let delta = w1 -. w0 in
  (* [Gc.minor_words] itself boxes its float results; anything beyond a
     few words means a per-request allocation crept back in. *)
  Util.check_bool
    (Printf.sprintf "steady-state submit/await_ts allocated %.0f minor words"
       delta)
    true (delta < 64.)

(* ------------------------------------------------------------------ *)
(* Allocation pin: a getTS costs a bounded number of words per register *)
(* operation, whatever n is.                                            *)

(* A Lamport getTS is n reads and one write.  A collect returned through
   binds allocates per operation in proportion to its bind depth (64.5
   words per operation at n=64 when built on [fold_range] under three
   binds); built on [Shm.Prog.fold_reads] it is about 10. *)
let lamport_alloc_per_op () =
  let module L = Timestamp.Lamport in
  let n = 64 and rounds = 200 in
  List.iter
    (fun backend ->
       let regs =
         Multicore.Exec.make_store ~backend ~num:(L.num_registers ~n)
           ~init:(L.init_value ~n)
       in
       let _, ops =
         Multicore.Exec.run_store_counting ~regs (L.program ~n ~pid:0 ~call:0)
       in
       let w0 = Gc.minor_words () in
       for call = 1 to rounds do
         Sys.opaque_identity
           (Multicore.Exec.run_store ~regs (L.program ~n ~pid:0 ~call))
         |> ignore
       done;
       let w1 = Gc.minor_words () in
       let per_op = (w1 -. w0) /. float_of_int (rounds * ops) in
       Util.check_int "lamport n=64: register operations per getTS" (n + 1) ops;
       Util.check_bool
         (Printf.sprintf
            "lamport n=64 (%s): %.1f minor words per register operation"
            (B.choice_tag backend) per_op)
         true (per_op <= 16.))
    B.all_choices

let service_flat_end_to_end () =
  (* the service over the flat backend, including an interning value type
     (sqrt's [Bot | Cell _]), still satisfies the checker *)
  List.iter
    (fun impl ->
       let r =
         Svc.Loadgen.run impl
           { Svc.Loadgen.default with
             mode = Svc.Loadgen.Service { shards = 2; batch_max = 8 };
             clients = 3;
             requests_per_client = 40;
             pipeline = 4;
             backend = `Flat }
       in
       Util.check_bool (r.Svc.Loadgen.lg_impl ^ ": no violation (flat)") true
         (r.Svc.Loadgen.lg_violation = None);
       Util.check_int (r.Svc.Loadgen.lg_impl ^ ": total") 120
         r.Svc.Loadgen.lg_total)
    [ Timestamp.Registry.lamport; Timestamp.Registry.sqrt_oneshot ]

let suite =
  ( "backend",
    [ Util.case "flat backend round-trips immediates" flat_roundtrip;
      Util.case "flat backend interns boxed payloads" flat_interning;
      Util.case "flat backend handles mixed payloads" flat_mixed_payloads;
      Util.case "boxed and flat agree sequentially (all impls)"
        store_differential;
      Util.case "functor interpreters agree (all impls)" functor_matches_store;
      Util.case "lamport getTS allocates O(1) words per register op"
        lamport_alloc_per_op;
      Util.slow_case "stress lamport on both backends"
        (stress_both_backends "lamport" (module Timestamp.Lamport) ~n:4
           ~calls:60);
      Util.slow_case "stress efr on both backends"
        (stress_both_backends "efr" (module Timestamp.Efr) ~n:4 ~calls:60);
      Util.slow_case "stress vector on both backends"
        (stress_both_backends "vector" (module Timestamp.Vector_ts) ~n:4
           ~calls:40);
      Util.slow_case "stress sqrt one-shot on both backends"
        (stress_both_backends "sqrt" (module Timestamp.Sqrt.One_shot) ~n:8
           ~calls:1);
      Util.slow_case "pooled service path is allocation-free"
        service_zero_alloc;
      Util.slow_case "service over flat backend passes the checker"
        service_flat_end_to_end ] )
