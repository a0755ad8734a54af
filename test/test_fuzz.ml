(* The fuzz pipeline itself: generator determinism, shrinker mechanics and
   soundness, mutant kills (the harness must catch every planted bug and
   minimize it), clean-implementation survival, repro round-trips, and the
   checked-in corpus of shrunk counterexamples replayed as regressions. *)

let fail_violation (f : Fuzz.Harness.failure) =
  Alcotest.fail
    (Printf.sprintf "unexpected violation on %s (iteration %d): %s" f.impl
       f.iteration f.violation)

(* Same seed, same schedule — byte for byte; different seeds diverge. *)
let generator_deterministic () =
  let cfg = Fuzz.Gen.default ~calls:2 ~max_crashes:2 ~n:5 () in
  let draw seed = Fuzz.Gen.schedule cfg (Random.State.make [| seed |]) in
  Util.check_bool "seed 42 repeats" true (draw 42 = draw 42);
  Util.check_bool "seed 1001 repeats" true (draw 1001 = draw 1001);
  Util.check_bool "seeds 42 and 43 differ" true (draw 42 <> draw 43)

let generator_well_formed () =
  let cfg = Fuzz.Gen.default ~calls:3 ~max_crashes:2 ~n:4 () in
  List.iter
    (fun seed ->
       let actions = Fuzz.Gen.schedule cfg (Random.State.make [| seed |]) in
       let invokes = Array.make 4 0 in
       let crashes = ref 0 in
       List.iter
         (fun (a : Shm.Schedule.action) ->
            match a with
            | Invoke p ->
              Util.check_bool "pid in range" true (p >= 0 && p < 4);
              invokes.(p) <- invokes.(p) + 1
            | Step p | Crash p ->
              Util.check_bool "pid in range" true (p >= 0 && p < 4);
              Util.check_bool "only started processes step or crash" true
                (invokes.(p) > 0);
              (match a with Crash _ -> incr crashes | _ -> ()))
         actions;
       Array.iter
         (fun c -> Util.check_bool "at most [calls] invokes per pid" true (c <= 3))
         invokes;
       Util.check_bool "crash budget respected" true (!crashes <= 2))
    Util.seeds

(* Replay leniency: the same abstract schedule drives a one-shot and a
   long-lived implementation without raising, and drains to quiescence. *)
let replay_lenient_across_kinds () =
  let cfg = Fuzz.Gen.default ~calls:2 ~n:4 () in
  let actions = Fuzz.Gen.schedule cfg (Random.State.make [| 7 |]) in
  List.iter
    (fun (Timestamp.Registry.Impl (module T)) ->
       let sim, stats = Fuzz.Replay.run (module T) ~n:4 actions in
       Util.check_bool (T.name ^ ": drained to quiescence") true
         (Shm.Sim.running sim = []);
       Util.check_int
         (T.name ^ ": every action accounted for")
         (List.length actions)
         (stats.applied + stats.skipped))
    [ Timestamp.Registry.simple_oneshot; Timestamp.Registry.lamport ]

(* Shrinker mechanics on a synthetic oracle: the minimum satisfying
   "three Step 1 actions and one Crash 2" is exactly four actions, and the
   unused system size is lowered. *)
let shrinker_minimizes_synthetic () =
  let oracle ~n:_ (actions : Shm.Schedule.action list) =
    let steps1 =
      List.length (List.filter (fun a -> a = Shm.Schedule.Step 1) actions)
    in
    let crashes2 =
      List.length (List.filter (fun a -> a = Shm.Schedule.Crash 2) actions)
    in
    if steps1 >= 3 && crashes2 >= 1 then Some () else None
  in
  let noise =
    List.concat_map
      (fun i ->
         [ Shm.Schedule.Invoke (i mod 5); Shm.Schedule.Step (i mod 5);
           Shm.Schedule.Step 1 ])
      (List.init 20 (fun i -> i))
    @ [ Shm.Schedule.Crash 2; Shm.Schedule.Step 3 ]
  in
  match Fuzz.Shrink.minimize ~oracle ~n:5 noise with
  | None -> Alcotest.fail "oracle holds on the input"
  | Some m ->
    Util.check_int "minimal length" 4 (List.length m.schedule);
    Util.check_bool "oracle still holds" true
      (oracle ~n:m.n m.schedule <> None);
    Util.check_bool "n lowered below 5" true (m.n < 5);
    Util.check_bool "made progress" true (m.accepted > 0)

let shrinker_rejects_passing_input () =
  Util.check_bool "None on passing schedule" true
    (Fuzz.Shrink.minimize ~oracle:(fun ~n:_ _ -> None) ~n:3
       [ Shm.Schedule.Invoke 0 ]
     = None)

(* Every planted mutant must be killed from a fixed seed, the repro must
   shrink to at most 12 actions, still violate (shrinker soundness), and
   pass on the clean implementation it was copied from. *)
let mutant_kill (Timestamp.Registry.Impl (module M) as mutant) () =
  match
    Fuzz.Harness.run ~iters:500 ~n:4 ~calls:2 ~seed:42
      ~explore_fallback:false ~impls:[ mutant ] ()
  with
  | Fuzz.Harness.Passed _ ->
    Alcotest.fail (M.name ^ " survived 500 iterations")
  | Fuzz.Harness.Failed f ->
    Util.check_bool
      (Printf.sprintf "%s: repro has <= 12 actions (got %d)" M.name
         (List.length f.repro.schedule))
      true
      (List.length f.repro.schedule <= 12);
    Util.check_bool (M.name ^ ": caught within 10 iterations") true
      (f.iteration < 10);
    (match Fuzz.Harness.replay_repro f.repro with
     | Ok (Some _) -> ()
     | Ok None -> Alcotest.fail (M.name ^ ": shrunk repro no longer violates")
     | Error e -> Alcotest.fail e);
    (match Fuzz.Mutant.clean_counterpart M.name with
     | None -> Alcotest.fail (M.name ^ ": no clean counterpart")
     | Some clean ->
       match
         Fuzz.Harness.check_schedule ~impls:[ clean ] ~n:f.repro.n
           f.repro.schedule
       with
       | Ok _ -> ()
       | Error (_, msg) ->
         Alcotest.fail
           (Printf.sprintf "%s: clean counterpart also fails the repro: %s"
              M.name msg))

(* The acceptance bar: every clean implementation survives 10k random
   differential schedules with zero violations. *)
let clean_impls_survive_10k () =
  match
    Fuzz.Harness.run ~iters:10_000 ~n:4 ~calls:2 ~seed:7
      ~impls:Timestamp.Registry.all ()
  with
  | Fuzz.Harness.Passed stats ->
    Util.check_int "all 10k iterations ran" 10_000 stats.iterations;
    Util.check_bool "checked hb pairs" true (stats.hb_pairs > 0)
  | Fuzz.Harness.Failed f -> fail_violation f

let clean_impls_survive_crashes () =
  match
    Fuzz.Harness.run ~iters:1000 ~n:6 ~calls:2 ~max_crashes:2 ~seed:9
      ~impls:Timestamp.Registry.all ()
  with
  | Fuzz.Harness.Passed stats ->
    Util.check_int "all iterations ran" 1000 stats.iterations
  | Fuzz.Harness.Failed f -> fail_violation f

(* Tiny instances flip to exhaustive exploration — and still catch bugs. *)
let explore_fallback () =
  (match
     Fuzz.Harness.run ~n:2 ~calls:1 ~seed:1 ~impls:Timestamp.Registry.all ()
   with
   | Fuzz.Harness.Passed stats ->
     Util.check_bool "exhaustive" true stats.exhaustive
   | Fuzz.Harness.Failed f -> fail_violation f);
  match
    Fuzz.Harness.run ~n:2 ~calls:1 ~seed:1
      ~impls:[ List.hd Fuzz.Mutant.all ] ()
  with
  | Fuzz.Harness.Passed _ ->
    Alcotest.fail "mutant survived exhaustive exploration"
  | Fuzz.Harness.Failed f ->
    Util.check_bool "exhaustively-found repro also small" true
      (List.length f.repro.schedule <= 12)

let repro_roundtrip () =
  let repro : Fuzz.Repro.t =
    { impl = "simple-oneshot";
      n = 3;
      seed = Some 42;
      iteration = Some 5;
      schedule = [ Invoke 0; Step 0; Step 0; Crash 1; Invoke 2 ] }
  in
  (match Fuzz.Repro.of_json (Fuzz.Repro.to_json repro) with
   | Ok r -> Util.check_bool "json round-trip" true (r = repro)
   | Error e -> Alcotest.fail e);
  let path = Filename.temp_file "fuzz_repro" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Fuzz.Repro.save repro path;
       match Fuzz.Repro.load path with
       | Ok r -> Util.check_bool "file round-trip" true (r = repro)
       | Error e -> Alcotest.fail e);
  Util.check_bool "ocaml rendering mentions the actions" true
    (Fuzz.Repro.to_ocaml repro
     = "[ Invoke 0; Step 0; Step 0; Crash 1; Invoke 2 ]")

(* Replay the checked-in corpus of shrunk counterexamples: each one must
   still violate its mutant and pass the mutant's clean counterpart.  New
   shrunk repros get added here by `ts_cli fuzz --repro-out`. *)
let corpus_dir =
  (* resolve next to the test binary so both `dune runtest` (cwd = test dir)
     and `dune exec` (cwd = project root) find the checked-in corpus *)
  let beside_exe =
    Filename.concat (Filename.dirname Sys.executable_name) "repro_corpus"
  in
  if Sys.file_exists beside_exe then beside_exe else "repro_corpus"

(* Every [check_timed] path returns the scan's verdict and pair count on
   a replayed history, each completed call spanning its invocation and
   response times.  The corpus mutants' compares are strict weak orders,
   or reflexive (which every path rejects first), so every path
   applies. *)
let checker_paths_agree (Timestamp.Registry.Impl (module T)) ~n schedule =
  let cfg, _ = Fuzz.Replay.run (module T) ~n schedule in
  let hist = Shm.Sim.hist cfg in
  let records =
    List.filter_map
      (fun ((op : Shm.History.op), ts) ->
         match Shm.History.interval hist op with
         | Some (start, Some stop) ->
           Some
             { Timestamp.Checker.td_pid = op.pid; td_call = op.call;
               td_start = start; td_end = stop; td_ts = ts }
         | _ -> None)
      (Shm.Sim.results cfg)
  in
  let verdict order =
    Result.to_option
      (Timestamp.Checker.check_timed ~order ~compare_ts:T.compare_ts
         ~pp:T.pp_ts records)
  in
  let scan = verdict `General in
  verdict `Strict_weak = scan && verdict `Strict_partial = scan

let corpus_replays () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    (* mutant-*.json are fuzz repros; model-*.json belong to Svc.Model and
       are replayed by Test_model *)
    |> List.filter (fun f ->
        String.starts_with ~prefix:"mutant-" f
        && Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  Util.check_bool "corpus has at least 3 repros" true (List.length files >= 3);
  List.iter
    (fun file ->
       let path = Filename.concat corpus_dir file in
       match Fuzz.Repro.load path with
       | Error e -> Alcotest.fail (file ^ ": " ^ e)
       | Ok repro ->
         (match Fuzz.Harness.replay_repro repro with
          | Ok (Some _) -> ()
          | Ok None ->
            Alcotest.fail (file ^ ": corpus repro no longer violates")
          | Error e -> Alcotest.fail (file ^ ": " ^ e));
         Option.iter
           (fun impl ->
              Util.check_bool (file ^ ": every checker path agrees") true
                (checker_paths_agree impl ~n:repro.n repro.schedule))
           (Fuzz.Harness.resolve_impl repro.impl);
         (match Fuzz.Mutant.clean_counterpart repro.impl with
          | None -> ()
          | Some clean ->
            match
              Fuzz.Harness.check_schedule ~impls:[ clean ] ~n:repro.n
                repro.schedule
            with
            | Ok _ -> ()
            | Error (_, msg) ->
              Alcotest.fail (file ^ ": clean counterpart fails: " ^ msg)))
    files

let suite =
  ( "fuzz",
    [ Util.case "generator is deterministic per seed" generator_deterministic;
      Util.case "generated schedules are well-formed" generator_well_formed;
      Util.case "replay is lenient across kinds" replay_lenient_across_kinds;
      Util.case "shrinker minimizes a synthetic oracle"
        shrinker_minimizes_synthetic;
      Util.case "shrinker rejects passing schedules"
        shrinker_rejects_passing_input;
      Util.case "explore fallback on tiny instances" explore_fallback;
      Util.case "repro round-trips (json, file, ocaml)" repro_roundtrip;
      Util.case "repro corpus replays as regressions" corpus_replays;
      Util.case "clean implementations survive 10k differential iterations"
        clean_impls_survive_10k;
      Util.case "clean implementations survive crash injection"
        clean_impls_survive_crashes ]
    @ List.map
      (fun (Timestamp.Registry.Impl (module M) as mutant) ->
         Util.case
           (Printf.sprintf "mutant kill: %s" M.name)
           (mutant_kill mutant))
      Fuzz.Mutant.all )
