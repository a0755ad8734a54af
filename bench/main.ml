(* Benchmark and experiment harness.

   The paper (Helmi, Higham, Pacheco, Woelfel: "The Space Complexity of
   Long-lived and One-Shot Timestamp Implementations") is a theory paper:
   its evaluation artifacts are the bound theorems and the two figures of
   the Section-4 construction.  Each experiment below regenerates one of
   them, and a full run measures each thing once (the experiment ids
   match DESIGN.md and EXPERIMENTS.md; a file named is the experiment's
   machine-readable copy):

     E1  Theorem 1.1   long-lived adversary: (3,k)-configurations, n <= 20
     E2  Theorem 1.2   one-shot adversary sweep + Figures 1 and 2, with
                       the EFR baseline construction beside the sqrt rows
     E3  Theorem 1.3   sqrt algorithm space measurements
     E4  Section 5     simple algorithm space measurements
     E5  Section 1     the bounds summary table (theory vs measured)
     E6  Lemma 2.1     empirical validation
     E7  Section 6     claim-level checks (phases, invalidation writes)
     E8  Section 7     M-bounded long-lived generalization
     EA  Section 6.1   ablation of the repair rule
     E9  (ours)        the full stack over ABD message-passing registers
     E10 (ours)        exploration engine: exhaustive baseline, dedup,
                       reduction, symmetry quotient, domains
                       (BENCH_explore.json)
     E12 (ours)        fuzzer sensitivity: iterations-to-kill and shrink
                       quality for each planted mutant across seeds
     E13 (ours)        service: direct, unbatched and batched shapes
                       across shard counts (BENCH_service.json)
     E16 (ours)        telemetry overhead, open-loop latency
                       (BENCH_telemetry.json)
     E17 (ours)        serving-layer models (BENCH_model.json)
     E18 (ours)        wire transport: round trips vs leases
                       (BENCH_net.json)
     E19 (ours)        wire tier at scale: reactor connection-scaling
                       curve, codec microbench, read path with every
                       request answered on its I/O loop (BENCH_net2.json)

   A full run ends with Bechamel timings of the key operations of each
   experiment.  Usage:

     dune exec bench/main.exe            -- all experiment tables + timings
     dune exec bench/main.exe -- --fast  -- smaller sweeps

   Further flags (all optional):

     --only EXP              run a single experiment, no timings (e.g.
                             --only e13)
     --requests N            E13 requests per client (default 400, fast 150)
     --max-shards D          E13 sweeps shard counts 1..D (default
                             max 4 recommended_domain_count)
     --telemetry-requests N  E16 requests per client (default 1500, fast 150)
     --net-requests N        E18 requests per client (default 2000, fast 300) *)

let fast = Array.exists (fun a -> a = "--fast") Sys.argv

(* Crude argv scanning, same spirit as [fast]: [--flag value]. *)
let arg_value name =
  let rec scan i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let arg_int name default =
  match arg_value name with
  | None -> default
  | Some s -> (
    match int_of_string_opt s with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: expected an integer, got %S" name s))

let only = arg_value "--only"

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let sub title = Printf.printf "\n--- %s ---\n" title

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (p /. 100. *. float_of_int n)))

(* The short revision of the checkout this binary was built in
   (<root>/_build/default/bench/main.exe), "-dirty" when a tracked file
   differs from it (what [git status --porcelain --untracked-files=no]
   lists), or "unknown"; [--exclude=*] keeps tags out, and git looks for
   a .git no higher than the checkout.  Read at start-up, before a run
   from the checkout dirties it with its own BENCH files. *)
let git_rev =
  let root =
    Filename.(dirname (dirname (dirname (dirname Sys.executable_name))))
  in
  let ceiling = "GIT_CEILING_DIRECTORIES=" ^ Filename.dirname root in
  match
    Unix.open_process_args_full "git"
      [| "git"; "-C"; root; "describe"; "--always"; "--dirty"; "--exclude=*" |]
      (Array.append [| ceiling |] (Unix.environment ()))
  with
  | exception Unix.Unix_error _ -> "unknown"
  | (out, _, _) as git -> (
    let rev = String.trim (In_channel.input_all out) in
    match Unix.close_process_full git with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown")

(* The one BENCH writer: an experiment returns its body, and every
   trajectory file opens with the same header. *)
let write_bench file ~experiment body =
  let doc =
    Obs.Json.Obj
      ([ ("schema_version", Obs.Json.Int Obs.Metric.schema_version);
         ("experiment", Obs.Json.String experiment);
         ("fast", Obs.Json.Bool fast);
         ( "recommended_domains",
           Obs.Json.Int (Domain.recommended_domain_count ()) );
         ("git_rev", Obs.Json.String git_rev) ]
       @ body)
  in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Obs.Json.pretty_to_string doc);
      Out_channel.output_char oc '\n');
  Printf.printf "\n(wrote %s)\n" file

(* A loadgen report whose checker verdict must hold: a violation fails
   the run, named by [what]. *)
let checked what (r : Svc.Loadgen.report) =
  Option.iter
    (fun v -> failwith (Printf.sprintf "%s: VIOLATION %s" what v))
    r.lg_violation;
  r

(* A checked loadgen report as JSON: the keys every serving experiment
   records, then the experiment's own. *)
let report_json ?(extra = []) (r : Svc.Loadgen.report) =
  Obs.Json.Obj
    ([ ("requests", Obs.Json.Int r.lg_total);
       ("seconds", Obs.Json.Float r.lg_elapsed_s);
       ("throughput_rps", Obs.Json.Float r.lg_throughput);
       ("p50_us", Obs.Json.Float r.lg_p50_us);
       ("p99_us", Obs.Json.Float r.lg_p99_us);
       ("hb_pairs", Obs.Json.Int r.lg_hb_pairs);
       ("checker", Obs.Json.String "OK") ]
     @ extra)

(* Steps [pid] until it is poised to write a register [at] accepts. *)
let rec poised ?(at = fun _ -> true) cfg pid =
  match Shm.Sim.covers cfg pid with
  | Some r when at r -> cfg
  | _ -> poised ~at (Shm.Sim.step cfg pid) pid

(* ------------------------------------------------------------------ *)
(* E5: bounds summary                                                   *)
(* ------------------------------------------------------------------ *)

let e5_bounds () =
  header "E5: bounds summary (paper, Section 1)";
  Printf.printf
    "%8s | %14s %14s %14s | %14s %14s\n"
    "n" "1shot LB" "1shot UB" "simple UB" "longlived LB" "longlived UB";
  Printf.printf "%s\n" (String.make 84 '-');
  List.iter
    (fun n ->
       Printf.printf "%8d | %14.1f %14d %14d | %14d %14d\n" n
         (Covering.Bounds.oneshot_lower n)
         (Covering.Bounds.oneshot_upper n)
         (Covering.Bounds.simple_upper n)
         (Covering.Bounds.longlived_lower n)
         (Covering.Bounds.longlived_upper n))
    [ 16; 64; 256; 1024; 4096; 16384 ];
  sub "measured register usage (staggered random workloads, seed 1)";
  Printf.printf "%-18s | %6s %12s %12s %12s\n" "implementation" "n"
    "written" "touched" "provisioned";
  Printf.printf "%s\n" (String.make 68 '-');
  List.iter
    (fun impl ->
       List.iter
         (fun n ->
            let r =
              Timestamp.Registry.(
                probe impl ~n ~seed:1
                  (Workload.Staggered { invoke_prob = 0.05; calls = 3 }))
            in
            Printf.printf "%-18s | %6d %12d %12d %12d\n"
              (Timestamp.Registry.name impl)
              n r.Timestamp.Registry.regs_written
              r.Timestamp.Registry.regs_touched
              r.Timestamp.Registry.regs_provisioned)
         (if fast then [ 16; 64 ] else [ 16; 64; 256 ]))
    Timestamp.Registry.all

(* ------------------------------------------------------------------ *)
(* E2: the one-shot lower-bound construction (Theorem 1.2, Figs 1-2)    *)
(* ------------------------------------------------------------------ *)

(* Monomorphic summary so that differently-typed implementations can share
   one table loop. *)
type adv_summary = {
  a_j_last : int;
  a_l_last : int;
  a_case2 : int;
  a_maxcov : int;
  a_stop : string;
  a_rounds : (int array * int * int) list;  (* sig_after, j, l per round *)
}

let run_oneshot_adversary (Timestamp.Registry.Impl (module T)) ~n =
  let module H = Timestamp.Harness.Make (T) in
  match
    Covering.Oneshot_adversary.run ~fuel:5_000_000 ~supplier:(H.supplier ~n)
      ~cfg:(H.create ~n) ()
  with
  | Error e -> Error e
  | Ok o ->
    Ok
      { a_j_last = o.j_last;
        a_l_last = o.l_last;
        a_case2 = o.case2_count;
        a_maxcov = o.max_covered;
        a_stop = Format.asprintf "%a" Covering.Oneshot_adversary.pp_stop o.stop;
        a_rounds =
          List.map
            (fun (r : Covering.Oneshot_adversary.round) ->
               (r.sig_after, r.j, r.l))
            o.rounds }

(* The registers Ellen-Fatourou-Ruppert's baseline construction covers
   against [impl] before its per-round coverage decay stops it. *)
let run_efr_baseline (Timestamp.Registry.Impl (module T)) ~n =
  let module H = Timestamp.Harness.Make (T) in
  Result.map
    (fun o -> o.Covering.Efr_adversary.covered)
    (Covering.Efr_adversary.run ~fuel:5_000_000 ~supplier:(H.supplier ~n)
       ~cfg:(H.create ~n) ())

let e2_oneshot_adversary () =
  header "E2: one-shot covering adversary (Theorem 1.2)";
  print_endline
    "(simple-swap is the historyless-object variant of Section 7: the same\n\
    \ construction applies because poised swaps cover registers; efr is\n\
    \ the registers EFR's baseline construction covers against the sqrt\n\
    \ algorithm, which loses coverage every round and caps at ~sqrt(n)\n\
    \ where the paper's grid scheme reaches ~sqrt(2n) (Section 3))";
  Printf.printf
    "%-15s %6s | %5s %6s %7s %7s %6s %9s %5s | %s\n"
    "implementation" "n" "grid" "j_last" "l_last" "case2" "bound" "maxcov"
    "efr" "stop";
  Printf.printf "%s\n" (String.make 98 '-');
  let ns = if fast then [ 16; 32; 64 ] else [ 8; 16; 32; 64; 128; 200 ] in
  let last_rounds = ref [] in
  List.iter
    (fun n ->
       List.iter
         (fun (name, impl) ->
            match run_oneshot_adversary impl ~n with
            | Error e -> Printf.printf "%-15s %6d | ERROR %s\n" name n e
            | Ok o ->
              let efr =
                if name <> "sqrt-oneshot" then "-"
                else begin
                  last_rounds := o.a_rounds;
                  match run_efr_baseline impl ~n with
                  | Ok covered -> string_of_int covered
                  | Error _ -> "ERROR"
                end
              in
              Printf.printf
                "%-15s %6d | %5d %6d %7d %7d %6.1f %9d %5s | %s\n" name n
                (Covering.Bounds.grid_width n)
                o.a_j_last o.a_l_last o.a_case2
                (Covering.Bounds.oneshot_lower n)
                o.a_maxcov efr o.a_stop)
         Timestamp.Registry.
           [ ("simple-oneshot", simple_oneshot); ("simple-swap", simple_swap);
             ("sqrt-oneshot", sqrt_oneshot) ])
    ns;
  (* Figures 1 and 2: grids of real configurations reached by the
     construction against the sqrt algorithm at the largest n. *)
  (match !last_rounds with
   | [] -> ()
   | (first_sig, _, _) :: rest ->
     let n = List.hd (List.rev ns) in
     let l = Covering.Bounds.grid_width n in
     sub
       (Printf.sprintf
          "Figure 1 analogue: first (j, m-j)-full configuration (n=%d, \
           diagonal l=%d)"
          n l);
     print_string (Covering.Grid.render_sig ~l first_sig);
     (match List.rev rest with
      | (last_sig, j, l') :: _ ->
        sub
          (Printf.sprintf
             "Figure 2 analogue: configuration after the last round \
              (j=%d, l=%d)"
             j l');
        print_string (Covering.Grid.render_sig ~l:l' last_sig)
      | [] -> ()))

(* ------------------------------------------------------------------ *)
(* E1: the long-lived lower-bound construction (Theorem 1.1)            *)
(* ------------------------------------------------------------------ *)

let run_longlived (Timestamp.Registry.Impl (module T)) ~n ~k =
  let module H = Timestamp.Harness.Make (T) in
  match
    Covering.Longlived_adversary.run ~fuel:1_000_000 ~supplier:(H.supplier ~n)
      ~cfg:(H.create ~n) ~k ()
  with
  | Error e -> Error e
  | Ok o -> Ok (o.covered, o.schedule_length)

let e1_longlived_adversary () =
  header "E1: long-lived covering adversary (Theorem 1.1)";
  Printf.printf "%-18s %4s %4s | %8s %10s %10s %10s %8s\n" "implementation"
    "n" "k" "covered" "ceil(k/3)" "floor(n/6)" "schedule" "seconds";
  Printf.printf "%s\n" (String.make 85 '-');
  let cases =
    (* The checkpointed adversary (PR 5) reaches n = 20 within the default
       fuel; n <= 14 rows are pinned exactly by test_explore_v3. *)
    if fast then [ (8, 4); (10, 5); (16, 8) ]
    else
      [ (6, 3); (8, 4); (10, 5); (12, 6); (14, 7); (16, 8); (18, 9); (20, 10) ]
  in
  List.iter
    (fun (n, k) ->
       List.iter
         (fun impl ->
            let name = Timestamp.Registry.name impl in
            let t0 = Obs.Clock.now_ns () in
            match run_longlived impl ~n ~k with
            | Error e -> Printf.printf "%-18s %4d %4d | ERROR %s\n" name n k e
            | Ok (covered, schedule_length) ->
              let secs = Obs.Clock.elapsed_s t0 and bound = (k + 2) / 3 in
              Printf.printf "%-18s %4d %4d | %8d %10d %10d %10d %8.3f%s\n" name
                n k covered bound
                (Covering.Bounds.longlived_lower n)
                schedule_length secs
                (if covered >= bound then "" else "  BELOW BOUND"))
         Timestamp.Registry.long_lived)
    cases

(* ------------------------------------------------------------------ *)
(* E3 + E7: sqrt algorithm space and Section-6 claims                   *)
(* ------------------------------------------------------------------ *)

let e3_e7_sqrt_space () =
  header "E3/E7: sqrt algorithm space and Section-6 claims (Theorem 1.3)";
  Printf.printf
    "%8s | %6s %8s %12s %10s %12s %11s\n" "M=n" "m" "phases" "max written"
    "writes" "steps/call" "violations";
  Printf.printf "%s\n" (String.make 78 '-');
  List.iter
    (fun n ->
       let s =
         Timestamp.Sqrt_claims.run_random ~invoke_prob:0.02 ~n ~seed:1
           ~total_calls:n ~calls_per_proc:1 ()
       in
       Printf.printf "%8d | %6d %8d %12d %10d %12d %11d\n" n s.m s.phases
         s.max_written_index s.total_writes s.max_steps_per_call
         (List.length s.violations);
       List.iter (fun v -> Printf.printf "    VIOLATION: %s\n" v) s.violations)
    (if fast then [ 16; 64; 256 ] else [ 16; 64; 256; 1024 ])

(* ------------------------------------------------------------------ *)
(* E4: the simple one-shot algorithm (Section 5)                        *)
(* ------------------------------------------------------------------ *)

let e4_simple () =
  header "E4: simple one-shot algorithm (Section 5)";
  Printf.printf "%8s | %12s %12s %14s %10s\n" "n" "registers" "written"
    "hb pairs ok" "max ts";
  Printf.printf "%s\n" (String.make 64 '-');
  List.iter
    (fun n ->
       let module H = Timestamp.Harness.Make (Timestamp.Simple_oneshot) in
       let cfg = H.run_waves ~wave_size:4 ~n ~seed:1 () in
       let pairs = H.check_exn cfg in
       let written, _ = H.space_used cfg in
       let max_ts =
         List.fold_left (fun m (_, t) -> max m t) 0 (Shm.Sim.results cfg)
       in
       Printf.printf "%8d | %12d %12d %14d %10d\n" n
         (Timestamp.Simple_oneshot.num_registers ~n)
         written pairs max_ts)
    [ 8; 32; 128; 512 ]

(* ------------------------------------------------------------------ *)
(* E6: Lemma 2.1 validation                                             *)
(* ------------------------------------------------------------------ *)

(* Lemma 2.1's probe on the sqrt algorithm at [n] processes: three
   fresh processes are driven until each covers a register, then the
   probe runs from there. *)
let lemma21_probe ~n =
  let module H = Timestamp.Harness.Make (Timestamp.Sqrt.One_shot) in
  let supplier = H.supplier ~n in
  let cover cfg pid =
    poised
      (Shm.Sim.invoke cfg ~pid ~program:(fun ~call -> supplier ~pid ~call))
      pid
  in
  Covering.Lemma21.probe ~fuel:200_000 ~supplier
    ~cfg:(List.fold_left cover (H.create ~n) [ 0; 1; 2 ])
    ~b0:[ 0 ] ~b1:[ 1 ] ~b2:[ 2 ] ~u0:3 ~u1:4 ~r:[ 0 ] ()

let e6_lemma21 () =
  header "E6: Lemma 2.1 empirical validation";
  let trials = if fast then 20 else 100 in
  let successes = ref 0 and u0_writes = ref 0 and u1_writes = ref 0 in
  for seed = 1 to trials do
    match lemma21_probe ~n:(8 + (seed mod 13)) with
    | Ok report ->
      incr successes;
      if List.mem Covering.Lemma21.U0 report.writers then incr u0_writes;
      if List.mem Covering.Lemma21.U1 report.writers then incr u1_writes
    | Error e -> Printf.printf "  trial %d FAILED: %s\n" seed e
  done;
  Printf.printf
    "trials=%d lemma-holds=%d (u0 wrote outside in %d, u1 in %d)\n" trials
    !successes !u0_writes !u1_writes

(* ------------------------------------------------------------------ *)
(* E8: M-bounded long-lived generalization (Section 7)                  *)
(* ------------------------------------------------------------------ *)

let e8_bounded_longlived () =
  header "E8: M-bounded long-lived sqrt algorithm (Section 7)";
  Printf.printf "%8s %6s | %6s %12s %10s %11s\n" "M" "n" "m" "max written"
    "phases" "violations";
  Printf.printf "%s\n" (String.make 62 '-');
  List.iter
    (fun (n, m_calls) ->
       let s =
         Timestamp.Sqrt_claims.run_random ~n ~seed:1 ~total_calls:m_calls
           ~calls_per_proc:(m_calls / n) ()
       in
       Printf.printf "%8d %6d | %6d %12d %10d %11d\n" m_calls n s.m
         s.max_written_index s.phases
         (List.length s.violations))
    [ (4, 16); (8, 64); (8, 256); (16, 1024) ]

(* ------------------------------------------------------------------ *)
(* E9: the full stack over message passing (ABD registers)              *)
(* ------------------------------------------------------------------ *)

let e9_distributed () =
  header "E9: timestamps over ABD-emulated registers (message passing + crashes)";
  Printf.printf "%-16s %4s %4s %8s | %8s %10s %8s\n" "implementation" "n"
    "R" "crashed" "pairs" "messages" "status";
  Printf.printf "%s\n" (String.make 70 '-');
  let run_one (type v r) label
      (module T : Timestamp.Intf.S with type value = v and type result = r)
      ~n ~replicas ~crashed ~steps ~seed =
    let module A = Abd.Emulation.Make (struct
        type nonrec v = v

        type nonrec r = r
      end)
    in
    let clients = List.init n (fun pid -> T.program ~n ~pid ~call:0) in
    let rand = Random.State.make [| seed |] in
    match
      A.run ~crashed ~clients ~replicas ~num_regs:(T.num_registers ~n)
        ~init:(T.init_value ~n) ~steps ~rand ()
    with
    | Error e ->
      Printf.printf "%-16s %4d %4d %8d | ERROR %s\n" label n replicas
        (List.length crashed) e
    | Ok o -> (
        match A.check_timestamps ~compare_ts:T.compare_ts o with
        | Ok pairs ->
          Printf.printf "%-16s %4d %4d %8d | %8d %10d %8s\n" label n replicas
            (List.length crashed) pairs o.messages "OK"
        | Error e ->
          Printf.printf "%-16s %4d %4d %8d | VIOLATION %s\n" label n replicas
            (List.length crashed) e)
  in
  run_one "sqrt-oneshot" (module Timestamp.Sqrt.One_shot) ~n:6 ~replicas:3
    ~crashed:[] ~steps:20 ~seed:1;
  run_one "sqrt-oneshot" (module Timestamp.Sqrt.One_shot) ~n:8 ~replicas:5
    ~crashed:[ 0; 2 ] ~steps:40 ~seed:2;
  run_one "simple-oneshot" (module Timestamp.Simple_oneshot) ~n:8 ~replicas:5
    ~crashed:[ 1; 4 ] ~steps:10 ~seed:3;
  run_one "lamport" (module Timestamp.Lamport) ~n:6 ~replicas:7
    ~crashed:[ 0; 3; 6 ] ~steps:10 ~seed:4

(* ------------------------------------------------------------------ *)
(* E10: the exploration engine, setting by setting (exhaustive baseline, *)
(* dedup, reduction, symmetry quotient, domains); BENCH_explore.json    *)
(* ------------------------------------------------------------------ *)

(* One exploration of every schedule of [impl], [calls] getTS per
   process, each leaf checked, under the engine settings given. *)
let explore ?dedup ?reduction ?symmetry ?domains
    (Timestamp.Registry.Impl (module T)) ~n ~calls =
  let module H = Timestamp.Harness.Make (T) in
  match
    Shm.Explore.explore ~max_steps:400 ~max_paths:5_000_000 ?dedup ?reduction
      ?symmetry ?domains ~supplier:(H.supplier ~n)
      ~calls_per_proc:(Array.make n calls)
      ~leaf_check:(fun cfg -> Result.is_ok (H.check cfg))
      (H.create ~n)
  with
  | Shm.Explore.Counterexample _ ->
    failwith (T.name ^ ": unexpected counterexample")
  | Shm.Explore.Ok s -> s

(* The exploration workloads of E10, each with the expanded-configuration
   count of the v2 engine (dedup + reduction, sequential, max_steps =
   400, max_paths = 5M), captured immediately before the v3 fingerprints
   and symmetry quotient landed.  They are commitments, not measurements
   — the v2 engine no longer exists in the tree, so E10's vs-v2 ratio is
   computed against these. *)
let explore_workloads =
  Timestamp.Registry.
    [ ("simple-oneshot", simple_oneshot, 3, 1, 8_808);
      ("simple-oneshot", simple_oneshot, 4, 1, 1_792_989);
      ("simple-swap", simple_swap, 3, 1, 5_861);
      ("simple-swap", simple_swap, 4, 1, 1_105_051);
      ("efr", efr, 3, 1, 3_337);
      ("lamport", lamport, 2, 2, 3_397) ]
  |> List.filter (fun (name, _, n, _, _) ->
      not (fast && (n > 3 || name = "simple-swap" || name = "lamport")))

let configs_per_sec (s : Shm.Explore.stats) =
  float_of_int s.configurations /. max 1e-9 s.seconds

let e10_explore_engine () =
  header
    "E10: exploration engine — exhaustive baseline, dedup, reduction, \
     symmetry quotient, domains";
  let domains = Domain.recommended_domain_count () in
  Printf.printf
    "(verdicts are engine-independent; 'expanded' is the work measure; the\n\
    \ baseline and dedup-only engines run at n <= 3; v2 is the v2\n\
    \ engine's committed expanded count; %d domain(s) available)\n"
    domains;
  Printf.printf "%-16s %2s %5s | %-13s %10s %9s %9s %7s %10s %8s\n" "workload"
    "n" "calls" "engine" "expanded" "dedup" "sleep" "merges" "configs/s"
    "seconds";
  Printf.printf "%s\n" (String.make 100 '-');
  let results =
    List.map
      (fun (name, impl, n, calls, v2) ->
         let engines =
           (if n <= 3 then
              [ ("baseline", false, false, true, 1);
                ("dedup", true, false, true, 1) ]
            else [])
           @ [ ("reduced-nosym", true, true, false, 1);
               ("reduced", true, true, true, 1);
               ("parallel", true, true, true, domains) ]
         in
         let samples =
           List.map
             (fun (label, dedup, reduction, symmetry, domains) ->
                let s =
                  explore impl ~n ~calls ~dedup ~reduction ~symmetry ~domains
                in
                Printf.printf
                  "%-16s %2d %5d | %-13s %10d %9d %9d %7d %10.0f %8.3f\n" name
                  n calls label s.expanded s.dedup_hits s.sleep_skips
                  s.canon_hits (configs_per_sec s) s.seconds;
                (label, s))
             engines
         in
         (name, n, calls, v2, samples))
      explore_workloads
  in
  (* how many times fewer configurations the reduced engine expanded *)
  let fewer expanded samples =
    float_of_int expanded
    /. float_of_int (max 1 (List.assoc "reduced" samples).Shm.Explore.expanded)
  in
  sub "headline ratios (expanded configurations of the reduced engine)";
  List.iter
    (fun (name, n, calls, v2, samples) ->
       Printf.printf "%-16s %2d %5d | %6.1fx fewer than v2" name n calls
         (fewer v2 samples);
       (match List.assoc_opt "baseline" samples with
        | None -> ()
        | Some b ->
          let speedup l =
            b.seconds /. max 1e-9 (List.assoc l samples).Shm.Explore.seconds
          in
          Printf.printf
            ", %8.1fx fewer than baseline, %6.2fx wall speedup (seq), %6.2fx \
             (par)"
            (fewer b.expanded samples)
            (speedup "reduced") (speedup "parallel"));
       print_newline ())
    results;
  let sample_json (label, (s : Shm.Explore.stats)) =
    ( label,
      Obs.Json.Obj
        [ ("expanded", Obs.Json.Int s.expanded);
          ("configurations", Obs.Json.Int s.configurations);
          ("dedup_hits", Obs.Json.Int s.dedup_hits);
          ("sleep_skips", Obs.Json.Int s.sleep_skips);
          ("canon_hits", Obs.Json.Int s.canon_hits);
          ("symmetric", Obs.Json.Bool s.symmetric);
          ("paths", Obs.Json.Int s.paths);
          ("seconds", Obs.Json.Float s.seconds);
          ("configs_per_sec", Obs.Json.Float (configs_per_sec s)) ] )
  in
  let workload_json (name, n, calls, v2, samples) : Obs.Json.t =
    Obs.Json.Obj
      ([ ("name", Obs.Json.String name);
         ("n", Obs.Json.Int n);
         ("calls", Obs.Json.Int calls);
         ("v2_expanded", Obs.Json.Int v2);
         ("engines", Obs.Json.Obj (List.map sample_json samples));
         ("reduction_vs_v2", Obs.Json.Float (fewer v2 samples)) ]
       @
       match List.assoc_opt "baseline" samples with
       | Some b ->
         [ ("expanded_reduction", Obs.Json.Float (fewer b.expanded samples)) ]
       | None -> [])
  in
  [ ("domains", Obs.Json.Int domains);
    ("workloads", Obs.Json.List (List.map workload_json results)) ]

(* ------------------------------------------------------------------ *)
(* E12: fuzzer sensitivity — iterations-to-kill for planted mutants     *)
(* ------------------------------------------------------------------ *)

let e12_fuzz_sensitivity () =
  header "E12: differential fuzzer sensitivity (iterations-to-kill)";
  print_endline
    "(each planted mutant is fuzzed from several seeds; a kill reports the\n\
    \ first failing iteration and the size of the shrunk counterexample)";
  let seeds = if fast then [ 1; 42 ] else [ 1; 7; 42; 1001; 65537 ] in
  let iters = if fast then 200 else 1000 in
  Printf.printf "%-26s %6s | %10s %10s %12s %10s\n" "mutant" "seed"
    "kill iter" "orig len" "shrunk len" "shrunk n";
  Printf.printf "%s\n" (String.make 82 '-');
  List.iter
    (fun (Timestamp.Registry.Impl (module M) as mutant) ->
       let kills = ref [] in
       List.iter
         (fun seed ->
            match
              Fuzz.Harness.run ~iters ~n:4 ~calls:2 ~seed
                ~explore_fallback:false ~impls:[ mutant ] ()
            with
            | Fuzz.Harness.Passed _ ->
              Printf.printf "%-26s %6d | %10s\n" M.name seed "SURVIVED"
            | Fuzz.Harness.Failed f ->
              kills := f.iteration :: !kills;
              Printf.printf "%-26s %6d | %10d %10d %12d %10d\n" M.name seed
                f.iteration f.original_len
                (List.length f.repro.schedule)
                f.repro.n)
         seeds;
       let n_kills = List.length !kills in
       let mean =
         if n_kills = 0 then 0.
         else
           float_of_int (List.fold_left ( + ) 0 !kills) /. float_of_int n_kills
       in
       Printf.printf "%-26s  mean kill iteration %.1f (%d/%d seeds)\n" ""
         mean n_kills (List.length seeds))
    Fuzz.Mutant.all;
  (* the clean baseline: no false positives on the same budget *)
  sub "clean-implementation control (same generator, same budget)";
  (match
     Fuzz.Harness.run ~iters ~n:4 ~calls:2 ~seed:42
       ~impls:Timestamp.Registry.all ()
   with
   | Fuzz.Harness.Passed s ->
     Printf.printf
       "all %d registered implementations: %d iterations, %d hb pairs, 0 \
        violations\n"
       (List.length Timestamp.Registry.all)
       s.iterations s.hb_pairs
   | Fuzz.Harness.Failed f ->
     Printf.printf "UNEXPECTED violation on %s: %s\n" f.impl f.violation)

(* ------------------------------------------------------------------ *)
(* E13: service layer — direct, unbatched and batched across shard     *)
(* counts, emitted as BENCH_service.json                                *)
(* ------------------------------------------------------------------ *)

let e13_service () =
  header
    "E13: timestamp service — direct, unbatched and batched across shard \
     counts (real domains)";
  let recommended = Domain.recommended_domain_count () in
  let max_shards = arg_int "--max-shards" (max 4 recommended) in
  let requests = arg_int "--requests" (if fast then 150 else 400) in
  Printf.printf
    "(seeded closed-loop loadgen, d clients at shard count d: 'direct' = the\n\
    \ clients execute getTS themselves with no service in between,\n\
    \ 'unbatched' = d shards with batch cap 1 and pipeline 1, 'batched' =\n\
    \ d shards with batch cap 64 and pipeline 8; recommended_domain_count\n\
    \ here = %d, shard counts beyond it run oversubscribed; machine-readable\n\
    \ copy in BENCH_service.json)\n"
    recommended;
  let shapes d =
    let base =
      { Svc.Loadgen.default with
        clients = d; requests_per_client = requests; n = 8; seed = 1 }
    in
    [ ("direct", { base with mode = Svc.Loadgen.Direct });
      ( "unbatched",
        { base with
          mode = Svc.Loadgen.Service { shards = d; batch_max = 1 };
          pipeline = 1 } );
      ( "batched",
        { base with
          mode = Svc.Loadgen.Service { shards = d; batch_max = 64 };
          pipeline = 8 } ) ]
  in
  Printf.printf "%-18s %2s | %10s %7s | %10s %7s | %10s %7s %8s | %6s\n"
    "implementation" "d" "direct/s" "p50 us" "unbatch/s" "p50 us" "batched/s"
    "p50 us" "p99 us" "b/u";
  Printf.printf "%s\n" (String.make 98 '-');
  let point impl d =
    let name = Timestamp.Registry.name impl in
    let runs =
      List.map
        (fun (label, cfg) ->
           ( label,
             checked
               (Printf.sprintf "E13 %s d=%d %s" name d label)
               (Svc.Loadgen.run impl cfg) ))
        (shapes d)
    in
    let r l = List.assoc l runs in
    let speedup =
      (r "batched").lg_throughput
      /. Float.max 1e-9 (r "unbatched").lg_throughput
    in
    Printf.printf
      "%-18s %2d | %10.0f %7.1f | %10.0f %7.1f | %10.0f %7.1f %8.1f | %5.2fx\n"
      name d (r "direct").lg_throughput (r "direct").lg_p50_us
      (r "unbatched").lg_throughput (r "unbatched").lg_p50_us
      (r "batched").lg_throughput (r "batched").lg_p50_us
      (r "batched").lg_p99_us speedup;
    (d, runs, speedup)
  in
  let results =
    List.map
      (fun impl ->
         (impl, List.init max_shards (fun i -> point impl (i + 1))))
      [ Timestamp.Registry.lamport; Timestamp.Registry.efr;
        Timestamp.Registry.vector; Timestamp.Registry.sqrt_oneshot ]
  in
  let shard_json (s : Svc.Loadgen.shard_report) : Obs.Json.t =
    Obs.Json.Obj
      [ ("shard", Obs.Json.Int s.sr_shard);
        ("served", Obs.Json.Int s.sr_served);
        ("batches", Obs.Json.Int s.sr_batches);
        ("max_batch", Obs.Json.Int s.sr_max_batch);
        ("p50_us", Obs.Json.Float s.sr_p50_us);
        ("p99_us", Obs.Json.Float s.sr_p99_us) ]
  in
  let run_json (label, (r : Svc.Loadgen.report)) =
    ( label,
      report_json r
        ~extra:
          [ ("config", Obs.Json.String r.lg_mode);
            ("shards", Obs.Json.List (List.map shard_json r.lg_shards)) ] )
  in
  let point_json (d, runs, speedup) =
    Obs.Json.Obj
      (("shards", Obs.Json.Int d)
       :: List.map run_json runs
       @ [ ("batched_speedup", Obs.Json.Float speedup) ])
  in
  let impl_json (impl, curve) =
    Obs.Json.Obj
      [ ("name", Obs.Json.String (Timestamp.Registry.name impl));
        ("curve", Obs.Json.List (List.map point_json curve)) ]
  in
  [ ("max_shards", Obs.Json.Int max_shards);
    ("requests_per_client", Obs.Json.Int requests);
    ("implementations", Obs.Json.List (List.map impl_json results)) ]

(* ------------------------------------------------------------------ *)
(* EA: ablation of the Algorithm-4 repair rule (Section 6.1)            *)
(* ------------------------------------------------------------------ *)

let ea_ablation () =
  header "EA: ablation of the lines 10-11 repair rule (Section 6.1)";
  (* the directed interleaving from Section 6.1 *)
  let scenario (module V : Timestamp.Sqrt_variants.VARIANT) =
    let module H = Timestamp.Harness.Make (V) in
    let n = 8 in
    let supplier = H.supplier ~n in
    let invoke cfg pid =
      Shm.Sim.invoke cfg ~pid ~program:(fun ~call -> supplier ~pid ~call)
    in
    let until_write cfg pid reg = poised ~at:(( = ) reg) cfg pid in
    let solo cfg pid =
      Option.get (Shm.Sim.run_solo ~fuel:10_000 (invoke cfg pid) pid)
    in
    let finish cfg pid = Option.get (Shm.Sim.run_solo ~fuel:10_000 cfg pid) in
    let cfg = until_write (invoke (H.create ~n) 0) 0 0 in
    let cfg = solo (solo (solo cfg 1) 2) 3 in
    let cfg = until_write (invoke cfg 4) 4 2 in
    let cfg = Shm.Sim.step cfg 0 in
    let cfg = until_write (invoke cfg 5) 5 2 in
    let cfg = finish cfg 4 in
    let cfg = solo cfg 6 in
    let cfg = finish cfg 5 in
    let cfg = solo cfg 7 in
    H.check cfg
  in
  let describe name v =
    Printf.printf "%-18s directed Section-6.1 interleaving: %s\n" name
      (match scenario v with
       | Ok _ -> "consistent"
       | Error viol ->
         Format.asprintf "VIOLATION %a" Timestamp.Checker.pp_violation viol)
  in
  describe "repair=stale" (module Timestamp.Sqrt.One_shot);
  describe "repair=never" (module Timestamp.Sqrt_variants.No_repair);
  describe "repair=always" (module Timestamp.Sqrt_variants.Eager_repair);
  let seeds = if fast then 200 else 1000 in
  (match
     Timestamp.Sqrt_variants.hunt_violation
       (module Timestamp.Sqrt_variants.No_repair)
       ~n:8 ~seeds
   with
   | None ->
     Printf.printf
       "random search: no violation of repair=never in %d random schedules \
        (the bug needs the directed interleaving)\n"
       seeds
   | Some (seed, v) ->
     Printf.printf "random search: seed %d violates repair=never: %s\n" seed v);
  sub "write cost of the repair policies (same seeds, one-shot workloads)";
  Printf.printf "%8s | %14s %14s\n" "n" "stale writes" "eager writes";
  Printf.printf "%s\n" (String.make 42 '-');
  List.iter
    (fun n ->
       let avg f =
         let total = List.fold_left (fun acc s -> acc + fst (f s)) 0 [ 1; 2; 3; 4; 5 ] in
         total / 5
       in
       let stale =
         avg (fun seed ->
             Timestamp.Sqrt_variants.writes_of
               (module struct include Timestamp.Sqrt.One_shot end)
               ~n ~seed)
       in
       let eager =
         avg (fun seed ->
             Timestamp.Sqrt_variants.writes_of
               (module Timestamp.Sqrt_variants.Eager_repair)
               ~n ~seed)
       in
       Printf.printf "%8d | %14d %14d\n" n stale eager)
    [ 16; 64; 256 ]

(* ------------------------------------------------------------------ *)
(* Bechamel timing benches: one Test.make per experiment                *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let solo_get_ts (type v r)
      (module T : Timestamp.Intf.S with type value = v and type result = r) ~n
      () =
    (* real-atomics solo latency of one full set of n one-shot calls *)
    let regs =
      Multicore.Exec.make_regs ~num:(T.num_registers ~n) ~init:(T.init_value ~n)
    in
    for pid = 0 to n - 1 do
      ignore (Multicore.Exec.run ~regs (T.program ~n ~pid ~call:0))
    done
  in
  let long_lived_get_ts (type v r)
      (module T : Timestamp.Intf.S with type value = v and type result = r) ~n
      ~calls () =
    let regs =
      Multicore.Exec.make_regs ~num:(T.num_registers ~n) ~init:(T.init_value ~n)
    in
    for call = 0 to calls - 1 do
      ignore (Multicore.Exec.run ~regs (T.program ~n ~pid:(call mod n) ~call))
    done
  in
  let n = 64 in
  [ Test.make ~name:"E4:simple-oneshot n=64 (n getTS, atomics)"
      (Staged.stage (solo_get_ts (module Timestamp.Simple_oneshot) ~n));
    Test.make ~name:"E3:sqrt-oneshot n=64 (n getTS, atomics)"
      (Staged.stage (solo_get_ts (module Timestamp.Sqrt.One_shot) ~n));
    Test.make ~name:"E5:lamport n=64 (64 getTS, atomics)"
      (Staged.stage (long_lived_get_ts (module Timestamp.Lamport) ~n ~calls:64));
    Test.make ~name:"E5:efr n=64 (64 getTS, atomics)"
      (Staged.stage (long_lived_get_ts (module Timestamp.Efr) ~n ~calls:64));
    Test.make ~name:"E5:vector n=64 (64 getTS, atomics)"
      (Staged.stage
         (long_lived_get_ts (module Timestamp.Vector_ts) ~n ~calls:64));
    Test.make ~name:"E2:oneshot-adversary n=32 (sqrt)"
      (Staged.stage (fun () ->
           match
             run_oneshot_adversary Timestamp.Registry.sqrt_oneshot ~n:32
           with
           | Ok _ -> ()
           | Error e -> failwith e));

    Test.make ~name:"E1:longlived-adversary n=8 k=4 (lamport)"
      (Staged.stage (fun () ->
           match run_longlived Timestamp.Registry.lamport ~n:8 ~k:4 with
           | Ok _ -> ()
           | Error e -> failwith e));
    Test.make ~name:"E6:lemma21-probe n=12 (sqrt)"
      (Staged.stage (fun () ->
           match lemma21_probe ~n:12 with
           | Ok _ -> ()
           | Error e -> failwith e));
    Test.make ~name:"E7:sqrt-claims n=64"
      (Staged.stage (fun () ->
           ignore
             (Timestamp.Sqrt_claims.run_random ~n:64 ~seed:1 ~total_calls:64
                ~calls_per_proc:1 ())));
    Test.make ~name:"E8:sqrt M=256 n=8 (claims run)"
      (Staged.stage (fun () ->
           ignore
             (Timestamp.Sqrt_claims.run_random ~n:8 ~seed:1 ~total_calls:256
                ~calls_per_proc:32 ())));
    Test.make ~name:"E10:explore reduced simple-oneshot n=3"
      (Staged.stage (fun () ->
           ignore
             (explore Timestamp.Registry.simple_oneshot ~n:3 ~calls:1
                ~dedup:true ~reduction:true ~domains:1))) ]

(* ------------------------------------------------------------------ *)
(* E16: telemetry overhead — armed sampler + live gauges vs disarmed,   *)
(* plus an open-loop latency profile; emitted as BENCH_telemetry.json   *)
(* ------------------------------------------------------------------ *)

let e16_telemetry () =
  header "E16: telemetry overhead and open-loop latency (budget <5%)";
  print_endline
    "(closed-loop service loadgen with the Timeseries sampler armed vs \
     off,\n\
    \ measured in interleaved pairs that alternate which cell runs first;\n\
    \ overhead is the median per-pair ratio, which cancels this box's slow\n\
    \ drift, with the interquartile range of the pairs; open-loop rows\n\
    \ report coordinated-omission-correct percentiles from the merged\n\
    \ per-domain HDR histograms; machine-readable copy in\n\
    \ BENCH_telemetry.json)";
  (* full runs are long on purpose: starting/stopping the sampler domain
     is a fixed per-run cost, and short runs book it as "overhead" *)
  let requests =
    arg_int "--telemetry-requests" (if fast then 150 else 1_500)
  in
  let iters = if fast then 3 else 9 in
  let budget_pct = 5.0 in
  let impl = Timestamp.Registry.lamport in
  let base =
    { Svc.Loadgen.default with
      mode = Svc.Loadgen.Service { shards = 2; batch_max = 64 };
      clients = 2; requests_per_client = requests; pipeline = 4; n = 4 }
  in
  let sorted xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a
  in
  let checked cfg = checked "E16" (Svc.Loadgen.run impl cfg) in
  let tel_file = Filename.temp_file "telemetry" ".jsonl" in
  let on_cfg =
    { base with
      telemetry =
        Some
          { Svc.Loadgen.tel_out = tel_file; tel_append = false;
            tel_interval_us = 10_000 } }
  in
  (* The box's run-to-run noise is slow drift (other tenants, thermal),
     not per-run jitter, so off/on cells measured back to back in
     *interleaved pairs* share the drift: the per-pair throughput ratio
     is far more stable than the two cell medians are.  Overhead is the
     median of those per-pair ratios; the absolute req/s columns are the
     cell medians and carry the full drift.  Pairs alternate which cell
     runs first, so a cost of running first or second lands on both. *)
  ignore (checked base);
  (* warmup: fault code paths in, settle the pools *)
  let pairs =
    List.init iters (fun i ->
        if i mod 2 = 0 then
          let off = checked base in
          (off, checked on_cfg)
        else
          let on = checked on_cfg in
          (checked base, on))
  in
  Sys.remove tel_file;
  let rps (r : Svc.Loadgen.report) = r.lg_throughput in
  let median_rps side =
    percentile (sorted (List.map (fun p -> rps (side p)) pairs)) 50.
  in
  let off_rps = median_rps fst and on_rps = median_rps snd in
  let overheads =
    sorted
      (List.map (fun (off, on) -> 100. *. (1. -. (rps on /. rps off))) pairs)
  in
  let overhead_pct = percentile overheads 50. in
  let q1 = percentile overheads 25. and q3 = percentile overheads 75. in
  (* an interquartile range that straddles 0 cannot tell the sampler's
     cost from the pairs' noise, whatever sign the median has; one wholly
     below 0 says the cells differ by more than the sampler, which cannot
     speed the service up *)
  let verdict =
    if q3 < 0. then "unresolved"
    else if q1 <= 0. then "within noise"
    else if overhead_pct < budget_pct then "within budget"
    else "over budget"
  in
  let off_r, on_r = List.hd pairs in
  Printf.printf "%-10s | %10s %10s %9s %s\n" "telemetry" "req/s" "p50 us"
    "p99 us" "overhead (IQR)";
  Printf.printf "%s\n" (String.make 66 '-');
  Printf.printf "%-10s | %10.0f %10.1f %9.1f %s\n" "off" off_rps
    off_r.lg_p50_us off_r.lg_p99_us "-";
  Printf.printf "%-10s | %10.0f %10.1f %9.1f %.1f%% (%.1f%% .. %.1f%%)\n" "on"
    on_rps on_r.lg_p50_us on_r.lg_p99_us overhead_pct q1 q3;
  (* open loop at ~60% of the measured closed-loop capacity: below
     saturation, so the percentiles describe the service rather than an
     ever-growing backlog *)
  let rate = Float.max 500. (0.6 *. off_rps) in
  let open_r =
    checked { base with arrival = Svc.Loadgen.Open { rate }; pipeline = 8 }
  in
  Printf.printf
    "open-loop  rate=%.0f/s: p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f \
     max=%.1f us\n"
    rate open_r.lg_p50_us open_r.lg_p90_us open_r.lg_p99_us
    open_r.lg_p999_us open_r.lg_max_us;
  Printf.printf "budget: %s (%.1f%%, IQR %.1f%% .. %.1f%%, vs %.0f%%)\n"
    verdict overhead_pct q1 q3 budget_pct;
  [ ("impl", Obs.Json.String (Timestamp.Registry.name impl));
    ("clients", Obs.Json.Int 2);
    ("requests_per_client", Obs.Json.Int requests);
    ("iterations", Obs.Json.Int iters);
    ("budget_pct", Obs.Json.Float budget_pct);
    ("off_rps", Obs.Json.Float off_rps);
    ("on_rps", Obs.Json.Float on_rps);
    ("overhead_pct", Obs.Json.Float overhead_pct);
    ( "overhead_iqr_pct",
      Obs.Json.List [ Obs.Json.Float q1; Obs.Json.Float q3 ] );
    ("verdict", Obs.Json.String verdict);
    ( "telemetry",
      Obs.Json.Obj
        [ ("samples", Obs.Json.Int on_r.lg_samples);
          ("stalls", Obs.Json.Int on_r.lg_stalls) ] );
    ( "open_loop",
      Obs.Json.Obj
        [ ("rate_rps", Obs.Json.Float rate);
          ("throughput_rps", Obs.Json.Float open_r.lg_throughput);
          ("p50_us", Obs.Json.Float open_r.lg_p50_us);
          ("p90_us", Obs.Json.Float open_r.lg_p90_us);
          ("p99_us", Obs.Json.Float open_r.lg_p99_us);
          ("p999_us", Obs.Json.Float open_r.lg_p999_us);
          ("max_us", Obs.Json.Float open_r.lg_max_us);
          ("hb_pairs", Obs.Json.Int open_r.lg_hb_pairs);
          ("checker", Obs.Json.String "OK") ] ) ]

(* ------------------------------------------------------------------ *)
(* E17: model-checking the serving layer (Svc.Model under Shm.Explore); *)
(* emitted as BENCH_model.json                                          *)
(* ------------------------------------------------------------------ *)

let e17_model () =
  header
    "E17: serving-layer models — exhaustive verdicts, mutant kills";
  (* Part 1: exhaustive verdicts for every model at n = 2..4 (n = 2 only
     under --fast; the full matrix takes ~15 minutes single-core, and the
     pool and tick n = 4 visited sets need more than 8 GB of memory). *)
  Printf.printf "%-6s %2s %6s | %-12s %9s %10s %10s %9s %6s %8s\n" "model" "n"
    "procs" "verdict" "paths" "expanded" "canon" "dedup" "trunc" "seconds";
  Printf.printf "%s\n" (String.make 92 '-');
  let ns = if fast then [ 2 ] else [ 2; 3; 4 ] in
  let model_rows =
    List.concat_map
      (fun model ->
         List.map
           (fun n ->
              let t0 = Obs.Clock.now_ns () in
              let outcome =
                match
                  Svc.Model.verify ~max_steps:400 ~max_paths:1_000_000_000
                    model ~n
                with
                | Stdlib.Ok o -> o
                | Stdlib.Error e -> failwith ("E17: " ^ e)
              in
              let secs = Obs.Clock.elapsed_s t0 in
              let procs =
                (Stdlib.Result.get_ok (Svc.Model.sys model ~n)).Svc.Model.procs
              in
              match outcome with
              | Shm.Explore.Counterexample { schedule; _ } ->
                Printf.printf "%-6s %2d %6d | %-12s (schedule of %d actions)\n"
                  (Svc.Model.name model) n procs "COUNTEREXAMPLE"
                  (List.length schedule);
                (model, n, procs, "counterexample", None, secs)
              | Shm.Explore.Ok s ->
                let verdict =
                  if s.exhaustive && s.truncated_paths = 0 then
                    "exhaustive"
                  else "partial"
                in
                Printf.printf
                  "%-6s %2d %6d | %-12s %9d %10d %10d %9d %6d %8.2f\n"
                  (Svc.Model.name model) n procs verdict s.paths s.expanded
                  s.canon_hits s.dedup_hits s.truncated_paths secs;
                (model, n, procs, verdict, Some s, secs))
           ns)
      Svc.Model.all
  in
  (* Part 2: the planted mutants must each die with a short shrunk
     schedule (the shipped corpus pins the same kills as regressions). *)
  sub "mutant kills (n = 2, shrunk schedules)";
  Printf.printf "%-20s %-6s | %-8s %8s %8s %8s\n" "mutant" "model" "killed"
    "actions" "shrunk" "seconds";
  Printf.printf "%s\n" (String.make 66 '-');
  let mutant_rows =
    List.map
      (fun (m : Svc.Model.mutant) ->
         let t0 = Obs.Clock.now_ns () in
         let outcome =
           match
             Svc.Model.verify ~max_steps:400 ~mutant:m.m_name m.m_model ~n:2
           with
           | Stdlib.Ok o -> o
           | Stdlib.Error e -> failwith ("E17: " ^ e)
         in
         let secs = Obs.Clock.elapsed_s t0 in
         match outcome with
         | Shm.Explore.Ok _ ->
           Printf.printf "%-20s %-6s | %-8s (MUTANT SURVIVED)\n" m.m_name
             (Svc.Model.name m.m_model) "NO";
           (m, false, 0, 0, secs)
         | Shm.Explore.Counterexample { schedule; _ } ->
           let shrunk =
             match Svc.Model.shrink ~mutant:m.m_name m.m_model ~n:2 schedule with
             | Some (s, _) -> List.length s
             | None -> List.length schedule
           in
           Printf.printf "%-20s %-6s | %-8s %8d %8d %8.2f\n" m.m_name
             (Svc.Model.name m.m_model) "yes" (List.length schedule) shrunk
             secs;
           (m, true, List.length schedule, shrunk, secs))
      Svc.Model.mutants
  in
  (* Machine-readable copy. *)
  let stats_json (s : Shm.Explore.stats) : Obs.Json.t =
    Obs.Json.Obj
      [ ("paths", Obs.Json.Int s.paths);
        ("expanded", Obs.Json.Int s.expanded);
        ("dedup_hits", Obs.Json.Int s.dedup_hits);
        ("sleep_skips", Obs.Json.Int s.sleep_skips);
        ("canon_hits", Obs.Json.Int s.canon_hits);
        ("truncated_paths", Obs.Json.Int s.truncated_paths);
        ("symmetric", Obs.Json.Bool s.symmetric);
        ("exhaustive", Obs.Json.Bool s.exhaustive) ]
  in
  let model_json (model, n, procs, verdict, stats, secs) : Obs.Json.t =
    Obs.Json.Obj
      ([ ("model", Obs.Json.String (Svc.Model.name model));
         ("n", Obs.Json.Int n);
         ("procs", Obs.Json.Int procs);
         ("verdict", Obs.Json.String verdict);
         ("seconds", Obs.Json.Float secs) ]
       @
       match stats with
       | Some s -> [ ("stats", stats_json s) ]
       | None -> [])
  in
  let mutant_json ((m : Svc.Model.mutant), killed, actions, shrunk, secs) :
    Obs.Json.t =
    Obs.Json.Obj
      [ ("mutant", Obs.Json.String m.m_name);
        ("model", Obs.Json.String (Svc.Model.name m.m_model));
        ("killed", Obs.Json.Bool killed);
        ("schedule_actions", Obs.Json.Int actions);
        ("shrunk_actions", Obs.Json.Int shrunk);
        ("seconds", Obs.Json.Float secs) ]
  in
  [ ("models", Obs.Json.List (List.map model_json model_rows));
    ("mutants", Obs.Json.List (List.map mutant_json mutant_rows)) ]

(* ------------------------------------------------------------------ *)
(* E18: network transport — per-stamp round trips vs epoch-range        *)
(* leases over a Unix socket; emitted as BENCH_net.json                 *)
(* ------------------------------------------------------------------ *)

(* One benchmark point: a fresh wire server on a fresh socket, driven
   by one [Net.Client.run] at lease size [lease]. *)
let e18_point impl ~lease (cfg : Svc.Loadgen.cfg) =
  let (Timestamp.Registry.Impl (module T)) = impl in
  let module Srv = Net.Server.Make (T) in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ts_e18_%d.sock" (Unix.getpid ()))
  in
  let addr = Net.Conn.Unix_path sock in
  let srv = Srv.start ~addr ~n:(max cfg.clients 2) () in
  Fun.protect ~finally:(fun () -> Srv.stop srv) @@ fun () ->
  checked
    (Printf.sprintf "E18 %s lease=%d" T.name lease)
    (Net.Client.run impl ~lease addr cfg)

let e18_net () =
  header "E18: network transport — per-stamp RTTs vs epoch-range leases";
  print_endline
    "(Unix-socket wire server, 2 clients; lease=1 pays one round trip per \
     stamp,\n\
    \ lease=1024 fetches one anchor + 1024 pre-reserved end ticks per miss \
     and\n\
    \ mints locally; every run passes the timed happens-before checker;\n\
    \ machine-readable copy in BENCH_net.json)";
  let requests = arg_int "--net-requests" (if fast then 300 else 2000) in
  let leases = [ 1; 1024 ] in
  let rates = if fast then [ 5_000. ] else [ 2_000.; 10_000.; 50_000. ] in
  let base =
    { Svc.Loadgen.default with
      clients = 2; requests_per_client = requests; n = 4; seed = 1 }
  in
  Printf.printf "%-18s %5s  %-14s | %10s %9s %9s %9s\n" "implementation"
    "lease" "mode" "req/s" "p50 us" "p99 us" "p99.9 us";
  Printf.printf "%s\n" (String.make 82 '-');
  let point_json (r : Svc.Loadgen.report) extra =
    report_json r
      ~extra:
        ([ ("p999_us", Obs.Json.Float r.lg_p999_us);
           ("max_us", Obs.Json.Float r.lg_max_us) ]
         @ extra)
  in
  let results =
    List.map
      (fun impl ->
         let (Timestamp.Registry.Impl (module T)) = impl in
         let row label (r : Svc.Loadgen.report) lease =
           Printf.printf "%-18s %5d  %-14s | %10.0f %9.1f %9.1f %9.1f\n"
             T.name lease label r.lg_throughput r.lg_p50_us r.lg_p99_us
             r.lg_p999_us
         in
         let leases_json =
           List.map
             (fun lease ->
                (* closed loop, one outstanding call: the per-stamp cost *)
                let closed =
                  e18_point impl ~lease
                    { base with arrival = Svc.Loadgen.Closed; pipeline = 1 }
                in
                row "closed p=1" closed lease;
                (* open loop: latency under a paced arrival schedule *)
                let opens =
                  List.map
                    (fun rate ->
                       let r =
                         e18_point impl ~lease
                           { base with
                             arrival = Svc.Loadgen.Open { rate };
                             pipeline = 4 }
                       in
                       row (Printf.sprintf "open %.0f/s" rate) r lease;
                       (rate, r))
                    rates
                in
                ( lease,
                  closed,
                  Obs.Json.Obj
                    [ ("lease", Obs.Json.Int lease);
                      ("closed", point_json closed []);
                      ( "open",
                        Obs.Json.List
                          (List.map
                             (fun (rate, r) ->
                                point_json r
                                  [ ("rate_rps", Obs.Json.Float rate) ])
                             opens) ) ] ))
             leases
         in
         let tput lease =
           match List.find_opt (fun (l, _, _) -> l = lease) leases_json with
           | Some (_, r, _) -> r.Svc.Loadgen.lg_throughput
           | None -> nan
         in
         let speedup = tput 1024 /. Float.max 1e-9 (tput 1) in
         Printf.printf "%-18s lease-1024/lease-1 closed speedup: %.1fx\n"
           T.name speedup;
         ( T.name,
           Obs.Json.Obj
             [ ("name", Obs.Json.String T.name);
               ( "leases",
                 Obs.Json.List (List.map (fun (_, _, j) -> j) leases_json) );
               ("lease_speedup", Obs.Json.Float speedup) ],
           speedup ))
      [ Timestamp.Registry.lamport; Timestamp.Registry.efr ]
  in
  [ ("transport", Obs.Json.String "unix-socket");
    ("clients", Obs.Json.Int base.Svc.Loadgen.clients);
    ("requests_per_client", Obs.Json.Int requests);
    ( "open_rates_rps",
      Obs.Json.List (List.map (fun r -> Obs.Json.Float r) rates) );
    ("implementations", Obs.Json.List (List.map (fun (_, j, _) -> j) results))
  ]

(* ------------------------------------------------------------------ *)
(* E19: the reactor wire tier — connection-scaling curve, zero-copy    *)
(* codec microbench, inline read path; emitted as BENCH_net2.json      *)
(* ------------------------------------------------------------------ *)

(* Frame-level driver over bare Net.Conn connections: ONE domain
   multiplexes every connection (frame a fixed-depth burst to each and
   flush it, then collect each one's replies), so the client side needs
   no domain per connection either and the server's domain count is the
   lone variable under test. *)
let e19_sock () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ts_e19_%d.sock" (Unix.getpid ()))

let e19_connect addr =
  let fd =
    Unix.socket ~cloexec:true (Net.Conn.domain_of addr) Unix.SOCK_STREAM 0
  in
  Unix.connect fd (Net.Conn.sockaddr_of addr);
  Net.Conn.create fd

let e19_recv conn =
  match Net.Conn.recv conn Net.Frame.read_resp with
  | Ok (Ok (Net.Frame.Err m)) -> failwith ("E19: server error: " ^ m)
  | Ok (Ok resp) -> resp
  | Ok (Error e) | Error (`Frame e) ->
    failwith ("E19: " ^ Net.Frame.error_to_string e)
  | Error `Eof -> failwith "E19: server closed the connection"

(* The process's OS threads, from /proc/self/task; -1 where /proc is
   not mounted.  The OCaml 5.1 runtime runs two per domain, the domain
   and its backup thread, and the backup thread may start after
   [Domain.spawn] returns. *)
let e19_os_threads () =
  match Sys.readdir "/proc/self/task" with
  | a -> Array.length a
  | exception Sys_error _ -> -1

(* One scaling point: [conns] pipelined connections against a reactor
   with [io_threads] loops; returns throughput plus the threads the
   process gained between [start] and the end of serving every
   connection, and runs the timed happens-before checker over every
   stamp the point produced. *)
let e19_scaling_point (type r)
    (module T : Timestamp.Intf.S with type result = r) ~io_threads ~n ~conns
    ~per_conn ~depth =
  let module Srv = Net.Server.Make (T) in
  let codec = Net.Codec.for_impl (module T) in
  let addr = Net.Conn.Unix_path (e19_sock ()) in
  let srv = Srv.start ~io_threads ~addr ~n () in
  Obs.Clock.sleep_s 0.05;  (* let every backup thread start *)
  let threads_at_start = e19_os_threads () in
  let cs = Array.init conns (fun _ -> e19_connect addr) in
  let timed = ref [] in
  let rounds = per_conn / depth in
  let t0 = Obs.Clock.now_ns () in
  for _ = 1 to rounds do
    Array.iter
      (fun c ->
         for _ = 1 to depth do
           Net.Frame.write_req (Net.Conn.send_buffer c) Net.Frame.Get_stamp
         done;
         Net.Conn.flush c)
      cs;
    Array.iter
      (fun c ->
         for _ = 1 to depth do
           match e19_recv c with
           | Net.Frame.Stamp w ->
             timed :=
               { Timestamp.Checker.td_pid = w.Net.Frame.w_pid;
                 td_call = w.Net.Frame.w_call;
                 td_start = w.Net.Frame.w_start_tick;
                 td_end = w.Net.Frame.w_end_tick;
                 td_ts = Net.Codec.decode_exn codec w.Net.Frame.w_ts }
               :: !timed
           | _ -> failwith "E19: unexpected response"
         done)
      cs
  done;
  let elapsed = Obs.Clock.elapsed_s t0 in
  (* measured while every connection is still open *)
  let thread_growth = e19_os_threads () - threads_at_start in
  let live = Srv.live_conns srv in
  Array.iter Net.Conn.close cs;
  Srv.stop srv;
  let hb_pairs =
    match
      Timestamp.Checker.check_timed ~order:T.order ~compare_ts:T.compare_ts
        ~pp:T.pp_ts !timed
    with
    | Ok pairs -> pairs
    | Error v ->
      failwith
        (Format.asprintf "E19 conns=%d: VIOLATION %a" conns
           Timestamp.Checker.pp_violation v)
  in
  (rounds * depth * conns, elapsed, thread_growth, live, hb_pairs)

let e19_net2 () =
  header "E19: reactor wire tier — connection scaling, codec, read path";
  print_endline
    "(one client domain drives every connection with depth-8 pipelining;\n\
    \ the PR-9 design spawned a handler domain per connection and hits \
     the\n\
    \ OCaml runtime's ~128-domain ceiling, the reactor keeps a fixed \
     pool;\n\
    \ every point passes the timed happens-before checker;\n\
    \ machine-readable copy in BENCH_net2.json)";
  let io_threads = 2 in
  let depth = 8 in
  let conn_counts = if fast then [ 1; 8; 32; 128 ] else [ 1; 4; 16; 64; 128; 256 ] in
  let total_target = if fast then 2_000 else 6_000 in
  let max_conns = List.fold_left max 1 conn_counts in
  let n = max_conns + 16 in  (* same register count at every point *)
  let module T = Timestamp.Lamport in
  sub "connection scaling (lamport-longlived, Get_stamp, unix socket)";
  Printf.printf "%7s | %10s %9s %13s %14s %s\n" "conns" "req/s" "reqs"
    "+threads" "dom-per-conn" "feasible@128";
  Printf.printf "%s\n" (String.make 78 '-');
  let scaling_json =
    List.map
      (fun conns ->
         let per_conn =
           max depth (total_target / conns / depth * depth)
         in
         let total, elapsed, thread_growth, live, hb_pairs =
           e19_scaling_point (module T) ~io_threads ~n ~conns ~per_conn
             ~depth
         in
         (* the acceptance bound, counted by the OS: serving [conns]
            connections adds no thread to what [start] spawned *)
         if thread_growth > 0 then
           failwith
             (Printf.sprintf "E19: %d threads spawned serving %d conns"
                thread_growth conns);
         if live <> conns then
           failwith
             (Printf.sprintf "E19: %d live conns tracked, expected %d" live
                conns);
         (* what the per-connection-domain design would have needed:
            one handler per connection + accept, on top of the service
            worker — past ~128 the runtime refuses to spawn *)
         let old_domains = conns + 2 in
         let feasible = old_domains <= 128 in
         let rps = float_of_int total /. Float.max 1e-9 elapsed in
         Printf.printf "%7d | %10.0f %9d %13d %14d %s\n" conns rps total
           thread_growth old_domains
           (if feasible then "yes" else "NO (reactor only)");
         Obs.Json.Obj
           [ ("conns", Obs.Json.Int conns);
             ("requests", Obs.Json.Int total);
             ("seconds", Obs.Json.Float elapsed);
             ("throughput_rps", Obs.Json.Float rps);
             ("thread_growth", Obs.Json.Int thread_growth);
             ("domain_per_conn_domains", Obs.Json.Int old_domains);
             ("domain_per_conn_feasible", Obs.Json.Bool feasible);
             ("hb_pairs", Obs.Json.Int hb_pairs);
             ("checker", Obs.Json.String "OK") ])
      conn_counts
  in
  (* ---- codec microbench: whole stamp frame per implementation ---- *)
  sub "codec microbench: whole stamp frame, encode and decode";
  Printf.printf "%-18s %-8s | %8s | %10s %10s %10s\n" "implementation"
    "codec" "frame B" "enc ns" "dec ns" "alloc/op";
  Printf.printf "%s\n" (String.make 75 '-');
  let iters = if fast then 50_000 else 200_000 in
  let time f k =
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to k do
      f ()
    done;
    float_of_int (Obs.Clock.now_ns () - t0) /. float_of_int k
  in
  let bench_codec (type r)
      (module T : Timestamp.Intf.S with type result = r) (ts : r) =
    let codec = Net.Codec.for_impl (module T) in
    let b = Net.Buf.create ~cap:65536 () in
    let encode () =
      Net.Buf.clear b;
      Net.Frame.write_stamp_v2 b codec ~pid:5 ~call:987_654 ~shard:3
        ~start_tick:123_456_789 ~end_tick:123_456_790 ts
    in
    encode ();
    let frame_bytes = Net.Buf.length b in
    for _ = 1 to 1_000 do encode () done;  (* warm *)
    let w0 = Gc.minor_words () in
    let enc_ns = time encode iters in
    let alloc_per_op = (Gc.minor_words () -. w0) /. float_of_int iters in
    (* the zero-allocation pin: byte stores and int arithmetic only on
       the stamp encode path *)
    if alloc_per_op > 0.01 then
      failwith
        (Printf.sprintf "E19: %s stamp encode allocates %.3f words/op"
           T.name alloc_per_op);
    let payload = Net.Codec.encode codec ts in
    let dec_ns =
      time (fun () -> ignore (Net.Codec.decode_exn codec payload)) iters
    in
    Printf.printf "%-18s %-8s | %8d | %10.1f %10.1f %10.3f\n" T.name
      (Net.Codec.name codec) frame_bytes enc_ns dec_ns alloc_per_op;
    Obs.Json.Obj
      [ ("impl", Obs.Json.String T.name);
        ("codec", Obs.Json.String (Net.Codec.name codec));
        ("frame_bytes_v2", Obs.Json.Int frame_bytes);
        ("encode_ns_v2", Obs.Json.Float enc_ns);
        ("decode_ns_v2", Obs.Json.Float dec_ns);
        ("minor_words_per_op", Obs.Json.Float alloc_per_op) ]
  in
  let codec_json =
    (* sequence the rows: list literals evaluate right-to-left *)
    let r1 = bench_codec (module Timestamp.Lamport) 123_456 in
    let r2 =
      bench_codec (module Timestamp.Efr) (Timestamp.Efr.Odd (9, 54_321))
    in
    let r3 =
      bench_codec (module Timestamp.Vector_ts)
        (Array.init 8 (fun i -> i * 1_000))
    in
    let r4 = bench_codec (module Timestamp.Sqrt.One_shot) (7, 199) in
    [ r1; r2; r3; r4 ]
  in
  (* ---- read path: Compare, Get_stamp, Get_range, all on the loop ---- *)
  sub "read path: Compare vs Get_stamp vs on-demand lease anchor, each \
       answered on the I/O loop";
  let rtt_iters = if fast then 500 else 2_000 in
  let module Srv = Net.Server.Make (T) in
  let module C = Net.Client.Make (T) in
  let read_path_json =
    let addr = Net.Conn.Unix_path (e19_sock ()) in
    let srv = Srv.start ~addr ~n:8 () in
    let c = C.connect addr in
    let s1 = C.stamp c in
    let s2 = C.stamp c in
    if not (C.compare_remote c s1 s2) then
      failwith "E19: remote compare disagrees with happens-before";
    (* lease anchors, raw: each lone Get_range runs its own anchor getTS *)
    let rc = e19_connect addr in
    let get_range () =
      Net.Frame.write_req (Net.Conn.send_buffer rc) (Net.Frame.Get_range 16);
      Net.Conn.flush rc;
      match e19_recv rc with
      | Net.Frame.Range _ -> ()
      | _ -> failwith "E19: expected Range"
    in
    (* One round trip of each kind per iteration, so a burst of host
       noise lands on all three kinds alike, not on one kind's phase. *)
    let cmp = Array.make rtt_iters 0. and stamp = Array.make rtt_iters 0.
    and range = Array.make rtt_iters 0. in
    let rtt a i f =
      let t0 = Obs.Clock.now_ns () in
      f ();
      a.(i) <- float_of_int (Obs.Clock.now_ns () - t0) *. 1e-3
    in
    for i = 0 to rtt_iters - 1 do
      rtt cmp i (fun () -> ignore (C.compare_remote c s1 s2));
      rtt stamp i (fun () -> ignore (C.stamp c));
      rtt range i get_range
    done;
    C.close c;
    Net.Conn.close rc;
    Srv.stop srv;
    List.iter (Array.sort compare) [ cmp; stamp; range ];
    let p50 a = percentile a 50. and p99 a = percentile a 99. in
    Printf.printf
      "Compare          p50 %7.1f us   p99 %7.1f us\n\
       Get_stamp        p50 %7.1f us   p99 %7.1f us\n\
       Get_range 16     p50 %7.1f us   p99 %7.1f us\n"
      (p50 cmp) (p99 cmp) (p50 stamp) (p99 stamp) (p50 range) (p99 range);
    (* A getTS runs on the loop like a Compare, so its round trip is a
       Compare's plus one program. *)
    List.iter
      (fun (name, a) ->
         if p50 a > 1.5 *. p50 cmp then
           failwith
             (Printf.sprintf
                "E19: %s p50 %.1fus exceeds 1.5x Compare's p50 %.1fus" name
                (p50 a) (p50 cmp)))
      [ ("Get_stamp", stamp); ("Get_range", range) ];
    Obs.Json.Obj
      [ ("compare_p50_us", Obs.Json.Float (p50 cmp));
        ("compare_p99_us", Obs.Json.Float (p99 cmp));
        ("stamp_p50_us", Obs.Json.Float (p50 stamp));
        ("stamp_p99_us", Obs.Json.Float (p99 stamp));
        ("range_p50_us", Obs.Json.Float (p50 range));
        ("range_p99_us", Obs.Json.Float (p99 range));
        ( "compare_vs_stamp_speedup",
          Obs.Json.Float (p50 stamp /. Float.max 1e-9 (p50 cmp)) ) ]
  in
  [ ("transport", Obs.Json.String "unix-socket");
    ("io_threads", Obs.Json.Int io_threads);
    ("pipeline_depth", Obs.Json.Int depth);
    ("conn_scaling", Obs.Json.List scaling_json);
    ("codec", Obs.Json.List codec_json);
    ("read_path", read_path_json) ]

let run_timings () =
  header "Timings (Bechamel, monotonic clock; ns per run)";
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if fast then 0.2 else 0.5))
      ~kde:None ()
  in
  List.iter
    (fun test ->
       let results = Benchmark.all cfg [ instance ] test in
       let analyzed = Analyze.all ols instance results in
       Hashtbl.iter
         (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> Printf.printf "%-48s %14.0f ns/run\n" name est
            | _ -> Printf.printf "%-48s (no estimate)\n" name)
         analyzed)
    (bechamel_tests ())

(* Every experiment by its [--only] id, in run order.  One that writes a
   trajectory file names it here, with its experiment tag; it returns
   the file's body and {!write_bench} adds the header. *)
let experiments =
  let bench file experiment run () = write_bench file ~experiment (run ()) in
  [ ("e5", e5_bounds); ("e2", e2_oneshot_adversary);
    ("e1", e1_longlived_adversary); ("e3", e3_e7_sqrt_space);
    ("e4", e4_simple); ("e6", e6_lemma21); ("e8", e8_bounded_longlived);
    ("e9", e9_distributed);
    ("e10", bench "BENCH_explore.json" "E10-explore-engine" e10_explore_engine);
    ("e12", e12_fuzz_sensitivity);
    ("e13", bench "BENCH_service.json" "E13-service" e13_service);
    ("e16", bench "BENCH_telemetry.json" "E16-telemetry" e16_telemetry);
    ("e17", bench "BENCH_model.json" "E17-model" e17_model);
    ("e18", bench "BENCH_net.json" "E18-net" e18_net);
    ("e19", bench "BENCH_net2.json" "E19-net2" e19_net2);
    ("ea", ea_ablation) ]

let () =
  Printf.printf
    "Timestamp space complexity: experiment harness%s\n"
    (if fast then " (fast mode)" else "");
  (match only with
   | Some id -> (
     match List.assoc_opt (String.lowercase_ascii id) experiments with
     | Some f -> f ()
     | None ->
       failwith
         (Printf.sprintf "--only %s: unknown experiment (have: %s)" id
            (String.concat ", " (List.map fst experiments))))
   | None ->
     List.iter (fun (_, f) -> f ()) experiments;
     run_timings ());
  print_endline "\nAll experiments complete."
