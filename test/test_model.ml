(* Svc.Model: the serving-layer models under the explorer — clean-model
   verdicts, engine equivalence (sequential DFS and the steal frontier),
   planted-mutant kills with shrunk schedules, the checked-in
   model repro corpus, a qcheck differential pinning the mpsc model to
   [Svc.Mpsc] (the inbox the service's shards run), and the Rmw/Await
   program semantics the models lean on. *)

let stats_of outcome =
  match outcome with
  | Stdlib.Ok (Shm.Explore.Ok s) -> s
  | Stdlib.Ok (Shm.Explore.Counterexample { schedule; at_leaf; _ }) ->
    Alcotest.fail
      (Printf.sprintf "unexpected counterexample (%s, %d actions)"
         (if at_leaf then "leaf" else "invariant")
         (List.length schedule))
  | Stdlib.Error e -> Alcotest.fail e

let cex_of outcome =
  match outcome with
  | Stdlib.Ok (Shm.Explore.Counterexample { schedule; _ }) -> schedule
  | Stdlib.Ok (Shm.Explore.Ok _) -> Alcotest.fail "mutant survived exploration"
  | Stdlib.Error e -> Alcotest.fail e

(* The three cheap models verify exhaustively at n = 2 in-process (mpsc
   n = 2 takes seconds and is pinned by the committed bench matrix and the
   CLI smoke instead).  The stop model is the symmetric one: its anonymous
   clients must engage the quotient; pid-capturing models must not. *)
let clean_models_verify () =
  List.iter
    (fun (model, expect_symmetric) ->
       let s = stats_of (Svc.Model.verify model ~n:2) in
       let name = Svc.Model.name model in
       Util.check_bool (name ^ " exhaustive") true s.exhaustive;
       Util.check_int (name ^ " untruncated") 0 s.truncated_paths;
       Util.check_bool (name ^ " quotient") expect_symmetric s.symmetric;
       Util.check_bool (name ^ " explored something") true (s.paths > 0))
    [ (Svc.Model.Pool, false); (Svc.Model.Tick, false); (Svc.Model.Stop, true) ]

(* The park/wake handshake verifies exhaustively at n = 2..3 records in
   the waiter's run, and both of its mutants die at each size: a wake
   after the first flip of the run, and a park without the re-check. *)
let park_model_verifies () =
  List.iter
    (fun n ->
       let s = stats_of (Svc.Model.verify Svc.Model.Park ~n) in
       let label = Printf.sprintf "park n=%d" n in
       Util.check_bool (label ^ " exhaustive") true s.exhaustive;
       Util.check_int (label ^ " untruncated") 0 s.truncated_paths;
       Util.check_bool (label ^ " explored something") true (s.paths > 0);
       List.iter
         (fun mutant ->
            let cex = cex_of (Svc.Model.verify ~mutant Svc.Model.Park ~n) in
            match Svc.Model.replay ~mutant Svc.Model.Park ~n cex with
            | Stdlib.Ok (Some why) ->
              Util.check_bool
                (Printf.sprintf "%s at n=%d is a lost wakeup" mutant n)
                true
                (String.starts_with ~prefix:"deadlock" why)
            | Stdlib.Ok None ->
              Alcotest.failf "%s at n=%d: counterexample does not replay"
                mutant n
            | Stdlib.Error e -> Alcotest.fail e)
         [ "park-wake-first"; "park-no-recheck" ])
    [ 2; 3 ]

(* Verdicts are engine-independent: the sequential DFS and the
   work-stealing frontier agree on the clean stop model, and every planted
   mutant dies under both. *)
let engines_agree_on_verdicts () =
  let engines = [ ("sequential", 1); ("steal", 2) ] in
  List.iter
    (fun (label, domains) ->
       let s = stats_of (Svc.Model.verify ~domains Svc.Model.Stop ~n:2) in
       Util.check_bool (label ^ " exhaustive") true s.exhaustive;
       Util.check_bool (label ^ " explored something") true (s.paths > 0))
    engines;
  List.iter
    (fun (m : Svc.Model.mutant) ->
       List.iter
         (fun (label, domains) ->
            let cex =
              cex_of (Svc.Model.verify ~domains ~mutant:m.m_name m.m_model ~n:2)
            in
            Util.check_bool
              (Printf.sprintf "%s under %s dies" m.m_name label)
              true (cex <> []))
         engines)
    Svc.Model.mutants

(* Each planted mutant is killed, the counterexample replays, and the
   shrinker gets it small.  The live bound matches the fuzz harness (12):
   greedy shrinking from a DFS counterexample can stall a little above the
   true minimum.  The checked-in corpus holds the hand-minimized <= 10
   schedules and is pinned below. *)
let mutant_kills () =
  List.iter
    (fun (m : Svc.Model.mutant) ->
       let cex = cex_of (Svc.Model.verify ~mutant:m.m_name m.m_model ~n:2) in
       (match Svc.Model.replay ~mutant:m.m_name m.m_model ~n:2 cex with
        | Stdlib.Ok (Some _) -> ()
        | Stdlib.Ok None ->
          Alcotest.fail (m.m_name ^ ": counterexample does not replay")
        | Stdlib.Error e -> Alcotest.fail (m.m_name ^ ": " ^ e));
       match Svc.Model.shrink ~mutant:m.m_name m.m_model ~n:2 cex with
       | None -> Alcotest.fail (m.m_name ^ ": shrinker lost the violation")
       | Some (shrunk, _why) ->
         Util.check_bool
           (Printf.sprintf "%s shrunk to <= 12 actions (got %d)" m.m_name
              (List.length shrunk))
           true
           (List.length shrunk <= 12);
         (match Svc.Model.replay ~mutant:m.m_name m.m_model ~n:2 shrunk with
          | Stdlib.Ok (Some _) -> ()
          | _ -> Alcotest.fail (m.m_name ^ ": shrunk schedule lost the bug")))
    Svc.Model.mutants

(* The checked-in model corpus (test/repro_corpus/model-*.json): every
   document still violates its mutant, stays short, and does NOT violate
   the clean model (replaying a mutant schedule against the clean program
   may diverge structurally — an [Error] — but must never report a
   violation). *)
let corpus_dir =
  let beside_exe =
    Filename.concat (Filename.dirname Sys.executable_name) "repro_corpus"
  in
  if Sys.file_exists beside_exe then beside_exe else "repro_corpus"

let model_corpus_replays () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f ->
        String.starts_with ~prefix:"model-" f
        && Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  Util.check_int "one corpus repro per model mutant"
    (List.length Svc.Model.mutants)
    (List.length files);
  List.iter
    (fun file ->
       let path = Filename.concat corpus_dir file in
       match Fuzz.Repro.load path with
       | Error e -> Alcotest.fail (file ^ ": " ^ e)
       | Ok repro ->
         Util.check_bool
           (file ^ " stays <= 10 actions")
           true
           (List.length repro.schedule <= 10);
         (match Svc.Model.replay_repro repro with
          | Stdlib.Ok (Some _) -> ()
          | Stdlib.Ok None ->
            Alcotest.fail (file ^ ": corpus repro no longer violates")
          | Stdlib.Error e -> Alcotest.fail (file ^ ": " ^ e));
         (match Svc.Model.impl_of_string repro.impl with
          | Stdlib.Error e -> Alcotest.fail (file ^ ": " ^ e)
          | Stdlib.Ok (model, _mutant) -> (
              match Svc.Model.replay model ~n:repro.n repro.schedule with
              | Stdlib.Ok (Some why) ->
                Alcotest.fail
                  (file ^ ": clean model also fails: " ^ why)
              | Stdlib.Ok None | Stdlib.Error _ -> ())))
    files

(* Regression for the replay oracle: a schedule that merely stops early —
   running processes blocked but other processes still invokable — is not
   a deadlock (the shrinker once exploited the lenient check to "minimize"
   a mutant kill down to an unrelated 3-action prefix). *)
let replay_prefix_is_not_deadlock () =
  match
    Svc.Model.replay Svc.Model.Tick ~n:2
      [ Shm.Schedule.Invoke 0; Shm.Schedule.Step 0; Shm.Schedule.Step 0 ]
  with
  | Stdlib.Ok None -> ()
  | Stdlib.Ok (Some why) -> Alcotest.fail ("prefix misreported: " ^ why)
  | Stdlib.Error e -> Alcotest.fail e

(* Differential fidelity: a serialized schedule of the mpsc model must
   leave exactly the registers [Svc.Mpsc], the service's inbox, ends in
   after the same operation sequence — same delivered log, same leftover
   stack — and both sides must agree the run is clean.  (Concurrent
   interleavings of the real structure cannot be scheduled
   deterministically; serialized runs pin the data structure semantics,
   the explorer covers the interleavings.  DESIGN.md section 13 states
   the full argument.) *)
let mpsc_matches_real_mpsc =
  Util.qtest ~count:200 "mpsc model matches Svc.Mpsc on serialized runs"
    (* a shuffle of: two pushes each by producers 0 and 1, two drains by
       the consumer (pid 2) — exactly the n = 2 model workload *)
    (QCheck2.Gen.shuffle_l [ 0; 0; 1; 1; 2; 2 ])
    (fun ops ->
       let sys =
         match Svc.Model.sys Svc.Model.Mpsc ~n:2 with
         | Stdlib.Ok s -> s
         | Stdlib.Error e -> Alcotest.fail e
       in
       (* model side: run each call to completion in operation order *)
       let progs = Shm.Schedule.programs sys.supplier ~n:sys.procs in
       let cfg =
         List.fold_left
           (fun cfg pid ->
              let cfg = ref (Shm.Sim.invoke cfg ~pid ~program:progs.(pid)) in
              while List.mem pid (Shm.Sim.runnable !cfg) do
                cfg := Shm.Sim.step !cfg pid
              done;
              !cfg)
           (Svc.Model.initial sys) ops
       in
       let model_stack =
         match Shm.Sim.reg cfg 0 with
         | Svc.Model.V_items l -> l
         | _ -> Alcotest.fail "mpsc register 0 is not an item list"
       in
       let model_log =
         match Shm.Sim.reg cfg 1 with
         | Svc.Model.V_items l -> l
         | _ -> Alcotest.fail "mpsc register 1 is not an item list"
       in
       (* model verdict: the same serialized schedule passes replay *)
       let schedule =
         List.concat_map
           (fun pid ->
              [ Shm.Schedule.Invoke pid; Shm.Schedule.Step pid;
                Shm.Schedule.Step pid; Shm.Schedule.Step pid ])
           ops
       in
       (match Svc.Model.replay Svc.Model.Mpsc ~n:2 schedule with
        | Stdlib.Ok None -> ()
        | Stdlib.Ok (Some why) ->
          Alcotest.fail ("model replay found a violation: " ^ why)
        | Stdlib.Error e -> Alcotest.fail ("model replay: " ^ e));
       (* real side: the same operations against the real structure *)
       let q = Util.Inbox.create () in
       let seq = Array.make 2 0 in
       let delivered = ref [] in
       List.iter
         (fun pid ->
            if pid = 2 then delivered := !delivered @ Util.drain_items q
            else begin
              Util.push_item q (pid, seq.(pid));
              seq.(pid) <- seq.(pid) + 1
            end)
         ops;
       let leftover = Util.drain_items q in
       (* real verdict: nothing lost, nothing duplicated, FIFO per pid *)
       let all = !delivered @ leftover in
       Util.check_int "real structure loses nothing" 4 (List.length all);
       Util.check_bool "real structure FIFO per producer" true
         (List.filter (fun (p, _) -> p = 0) all = [ (0, 0); (0, 1) ]
          && List.filter (fun (p, _) -> p = 1) all = [ (1, 0); (1, 1) ]);
       (* and the states agree exactly *)
       Util.check_bool "delivered logs agree" true (model_log = !delivered);
       Util.check_bool "leftover stacks agree" true
         (List.rev model_stack = leftover);
       true)

(* Rmw and Await: the Prog operations the models are built from. *)
let rmw_await_semantics () =
  let open Shm.Prog in
  (* rmw returns the OLD value and applies the update atomically *)
  let regs = [| 5 |] in
  let v, steps = run_pure ~regs (rmw 0 (fun x -> x * 10)) in
  Util.check_int "rmw returns old" 5 v;
  Util.check_int "rmw applied the update" 50 regs.(0);
  Util.check_int "rmw is one shared-memory step" 1 steps;
  (* cas success and failure *)
  let ok, _ = run_pure ~regs:[| 5 |] (cas 0 ~expect:5 ~desired:9) in
  Util.check_bool "cas hits" true ok;
  let ok, _ = run_pure ~regs:[| 5 |] (cas 0 ~expect:4 ~desired:9) in
  Util.check_bool "cas misses" false ok;
  (* await with a true guard passes through and returns the value *)
  let v, _ = run_pure ~regs:[| 7 |] (await 0 (fun x -> x = 7)) in
  Util.check_int "await passes" 7 v;
  (* run_pure cannot block: a false guard is a programming error there *)
  Util.check_bool "await blocks run_pure" true
    (match run_pure ~regs:[| 7 |] (await 0 (fun x -> x = 8)) with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* A blocked Await with nobody left to wake it surfaces as a maximal
   configuration, so a leaf check can flag the deadlock. *)
let await_deadlock_is_a_leaf () =
  let supplier ~pid ~call:_ =
    let open Shm.Prog.Syntax in
    if pid = 0 then
      let* v = Shm.Prog.await 0 (fun x -> x = 1) in
      Shm.Prog.return v
    else
      let* () = Shm.Prog.write 0 2 in
      Shm.Prog.return 0
  in
  let cfg = Shm.Sim.create ~n:2 ~num_regs:1 ~init:0 in
  match
    Shm.Explore.explore ~supplier ~calls_per_proc:[| 1; 1 |]
      ~leaf_check:(fun cfg -> Shm.Sim.running cfg = [])
      cfg
  with
  | Shm.Explore.Counterexample { cfg; at_leaf; _ } ->
    Util.check_bool "flagged at a leaf" true at_leaf;
    Util.check_bool "the awaiting process is stuck" true
      (Shm.Sim.running cfg <> [])
  | Shm.Explore.Ok _ ->
    Alcotest.fail "deadlocked configurations never reached a leaf check"

let suite =
  ( "svc-model",
    [ Util.case "clean models verify exhaustively (n=2)" clean_models_verify;
      Util.case "park model verifies at n=2..3, its mutants die"
        park_model_verifies;
      Util.case "engines agree on verdicts (steal/sequential)"
        engines_agree_on_verdicts;
      Util.case "planted mutants die with shrunk schedules" mutant_kills;
      Util.case "model repro corpus replays as regressions"
        model_corpus_replays;
      Util.case "replay: a stopped-early prefix is not a deadlock"
        replay_prefix_is_not_deadlock;
      mpsc_matches_real_mpsc;
      Util.case "rmw/await/cas semantics" rmw_await_semantics;
      Util.case "a blocked await surfaces as a leaf" await_deadlock_is_a_leaf ] )
