(* The instrumentation layer: JSON printer/parser roundtrips, metric
   invariants, collector totals against the simulator's own accounting,
   Chrome-trace well-formedness, and the zero-allocation guarantee of the
   disarmed hook path (the E10 overhead budget rests on it). *)

let json = Alcotest.testable (Fmt.of_to_string Obs.Json.to_string) ( = )

let json_roundtrip () =
  let doc =
    Obs.Json.(
      Obj
        [ ("null", Null);
          ("bool", Bool true);
          ("int", Int (-42));
          ("float", Float 1.5);
          ("string", String "a\"b\\c\n\t\x01d");
          ("list", List [ Int 1; Int 2; Obj [] ]);
          ("nested", Obj [ ("empty", List []) ]) ])
  in
  (match Obs.Json.of_string (Obs.Json.to_string doc) with
   | Ok doc' -> Alcotest.check json "compact roundtrip" doc doc'
   | Error e -> Alcotest.failf "compact reparse failed: %s" e);
  (match Obs.Json.of_string (Obs.Json.pretty_to_string doc) with
   | Ok doc' -> Alcotest.check json "pretty roundtrip" doc doc'
   | Error e -> Alcotest.failf "pretty reparse failed: %s" e);
  (* non-finite floats degrade to null rather than emitting invalid JSON *)
  (match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float Float.nan)) with
   | Ok v -> Alcotest.check json "nan serializes as null" Obs.Json.Null v
   | Error e -> Alcotest.failf "nan output unparseable: %s" e)

let json_errors () =
  let bad s =
    match Obs.Json.of_string s with
    | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" s
    | Error _ -> ()
  in
  List.iter bad
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ];
  match Obs.Json.of_lines "{\"a\": 1}\n\n[2, 3]\n" with
  | Ok [ _; _ ] -> ()
  | Ok l -> Alcotest.failf "of_lines found %d documents" (List.length l)
  | Error e -> Alcotest.failf "of_lines failed: %s" e

let metric_invariants () =
  let reg = Obs.Metric.registry ~name:"test" () in
  let c = Obs.Metric.counter reg "c" in
  Obs.Metric.incr c;
  Obs.Metric.add c 4;
  Util.check_int "counter value" 5 (Obs.Metric.value c);
  Util.check_int "get-or-create is the same counter" 5
    (Obs.Metric.value (Obs.Metric.counter reg "c"));
  (match Obs.Metric.gauge reg "c" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "kind mismatch not rejected");
  let g = Obs.Metric.gauge reg "g" in
  Obs.Metric.set g 2.5;
  Obs.Metric.set g 1.0;
  Alcotest.(check (float 0.0)) "gauge holds last value" 1.0
    (Obs.Metric.gauge_value g);
  let h = Obs.Metric.histogram ~buckets:[| 1.; 10.; 100. |] reg "h" in
  let obs = [ 0.5; 1.0; 3.0; 99.0; 1000.0 ] in
  List.iter (Obs.Metric.observe h) obs;
  Util.check_int "histogram count" (List.length obs) (Obs.Metric.hist_count h);
  Alcotest.(check (float 1e-9)) "histogram sum"
    (List.fold_left ( +. ) 0. obs)
    (Obs.Metric.hist_sum h);
  let buckets = Obs.Metric.hist_buckets h in
  Util.check_int "bucket counts sum to count" (Obs.Metric.hist_count h)
    (List.fold_left (fun a (_, c) -> a + c) 0 buckets);
  (match List.rev buckets with
   | (bound, overflow) :: _ ->
     Util.check_bool "overflow bound is infinite" true (bound = Float.infinity);
     Util.check_int "overflow holds out-of-range observation" 1 overflow
   | [] -> Alcotest.fail "no buckets");
  (* every JSONL line is a standalone document carrying the schema version *)
  match Obs.Json.of_lines (Obs.Metric.to_jsonl reg) with
  | Error e -> Alcotest.failf "to_jsonl unparseable: %s" e
  | Ok docs ->
    Util.check_int "one line per metric" 3 (List.length docs);
    List.iter
      (fun d ->
         match Obs.Json.member "schema_version" d with
         | Some (Obs.Json.Int v) ->
           Util.check_int "schema_version" Obs.Metric.schema_version v
         | _ -> Alcotest.fail "missing schema_version")
      docs

(* A seeded workload under a collector: the aggregated telemetry must agree
   with the simulator's own path-dependent accounting. *)
let collector_vs_sim () =
  let module H = Timestamp.Harness.Make (Timestamp.Lamport) in
  let collector = Obs.Collector.create () in
  let cfg =
    Obs.Hooks.with_hooks
      (Obs.Collector.hooks collector)
      (fun () -> H.run_random ~calls:3 ~n:4 ~seed:7 ())
  in
  let reads, writes, invocations = Obs.Collector.totals collector in
  Util.check_int "write events = Sim.writes" (Shm.Sim.writes cfg) writes;
  let responses =
    List.init 4 (fun p -> Obs.Collector.proc_responses collector p)
    |> List.fold_left ( + ) 0
  in
  Util.check_int "read+write+respond events = Sim.steps" (Shm.Sim.steps cfg)
    (reads + writes + responses);
  Util.check_int "invocations = sum of Sim.calls"
    (List.init 4 (Shm.Sim.calls cfg) |> List.fold_left ( + ) 0)
    invocations;
  List.iter
    (fun r ->
       Util.check_bool
         (Printf.sprintf "register %d read per history" r)
         true
         (Obs.Collector.reads collector r > 0))
    (Shm.Sim.read_set cfg);
  List.iter
    (fun r ->
       Util.check_bool
         (Printf.sprintf "register %d written per history" r)
         true
         (Obs.Collector.writes collector r > 0
          && Obs.Collector.first_write_step collector r >= 0))
    (Shm.Sim.written_set cfg);
  Util.check_bool "covering occupancy sampled" true
    (Obs.Collector.max_covered collector >= 1)

let trace_well_formed () =
  let trace = Obs.Trace.create ~process_name:"test" () in
  Obs.Hooks.with_hooks (Obs.Trace.hooks trace) (fun () ->
      Obs.Hooks.with_span "outer" (fun () ->
          Obs.Hooks.counter ~name:"k" 1.0;
          Obs.Hooks.with_span "inner" (fun () -> ());
          (* spans from another domain land on their own tid and must
             balance there, not on the main domain's stack *)
          Domain.join
            (Domain.spawn (fun () ->
                 Obs.Hooks.with_span "worker" (fun () -> ())))));
  match Obs.Json.of_string (Obs.Json.to_string (Obs.Trace.to_json trace)) with
  | Error e -> Alcotest.failf "trace JSON unparseable: %s" e
  | Ok doc ->
    let events =
      match Obs.Json.member "traceEvents" doc with
      | Some (Obs.Json.List l) -> l
      | _ -> Alcotest.fail "no traceEvents array"
    in
    Util.check_bool "trace has events" true (List.length events >= 7);
    (* B/E events must nest per tid (the Chrome trace format requirement) *)
    let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 4 in
    let stack tid =
      match Hashtbl.find_opt stacks tid with
      | Some s -> s
      | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
    in
    List.iter
      (fun ev ->
         let str name =
           match Obs.Json.member name ev with
           | Some (Obs.Json.String s) -> s
           | _ -> Alcotest.failf "event without %s" name
         in
         let tid =
           match Obs.Json.member "tid" ev with
           | Some (Obs.Json.Int t) -> t
           | _ -> Alcotest.fail "event without tid"
         in
         match str "ph" with
         | "B" ->
           let s = stack tid in
           s := str "name" :: !s
         | "E" -> (
             let s = stack tid in
             match !s with
             | top :: rest when top = str "name" -> s := rest
             | _ -> Alcotest.failf "unbalanced E event %s" (str "name"))
         | _ -> ())
      events;
    Hashtbl.iter
      (fun tid s ->
         Util.check_int (Printf.sprintf "tid %d stack drained" tid) 0
           (List.length !s))
      stacks

(* The hard requirement behind "instrumentation is free when off": the
   disarmed reporting entry points allocate nothing.  A small slack absorbs
   the boxed floats of the Gc.minor_words readings themselves. *)
let disarmed_no_alloc () =
  Obs.Hooks.clear ();
  let rounds = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to rounds do
    Obs.Hooks.sim Obs.Hooks.Read ~pid:1 ~reg:(i land 7);
    Obs.Hooks.sim Obs.Hooks.Write ~pid:0 ~reg:0;
    Obs.Hooks.span_begin ~name:"s";
    Obs.Hooks.span_end ~name:"s";
    Obs.Hooks.counter ~name:"c" 1.0;
    Obs.Hooks.observe ~name:"o" 2.0
  done;
  let w1 = Gc.minor_words () in
  Util.check_bool
    (Printf.sprintf "disarmed hooks allocated %.0f minor words" (w1 -. w0))
    true
    (w1 -. w0 < 64.)

(* Every latency and deadline reads [Obs.Clock]: a read allocates
   nothing and the clock never steps backwards. *)
let clock_reads () =
  let reads = 100_000 in
  let backwards = ref 0 and last = ref (Obs.Clock.now_ns ()) in
  let w0 = Gc.minor_words () in
  for _ = 1 to reads do
    let t = Obs.Clock.now_ns () in
    if t < !last then incr backwards;
    last := t
  done;
  let w1 = Gc.minor_words () in
  Util.check_int "reads that went backwards" 0 !backwards;
  Util.check_bool
    (Printf.sprintf "%d reads allocated %.0f minor words" reads (w1 -. w0))
    true (w1 -. w0 = 0.)

let explore_per_domain () =
  let explore ~domains ~n () =
    let module T = Timestamp.Simple_oneshot in
    let supplier ~pid ~call = T.program ~n ~pid ~call in
    let cfg =
      Shm.Sim.create ~n ~num_regs:(T.num_registers ~n) ~init:(T.init_value ~n)
    in
    match
      Shm.Explore.explore ~domains ~supplier
        ~calls_per_proc:(Array.make n 1)
        ~leaf_check:(fun cfg ->
            Result.is_ok (Timestamp.Checker.check_sim (module T) cfg))
        cfg
    with
    | Shm.Explore.Ok stats -> stats
    | Shm.Explore.Counterexample _ -> Alcotest.fail "unexpected counterexample"
  in
  let seq = explore ~domains:1 ~n:2 () in
  Util.check_int "sequential: one domain entry" 1
    (Array.length seq.per_domain);
  Util.check_int "sequential: entry owns all expansions" seq.expanded
    seq.per_domain.(0).d_expanded;
  Util.check_int "sequential: one branch" 1 seq.per_domain.(0).d_branches;
  Util.check_bool "sequential: wall clock measured" true (seq.seconds >= 0.);
  (* parallel: the breadth-first frontier expansion belongs to no worker
     (possibly many configurations), workers own everything below it *)
  let par = explore ~domains:2 ~n:3 () in
  let sum f = Array.fold_left (fun a d -> a + f d) 0 par.per_domain in
  Util.check_bool "frontier: at most 2 worker entries" true
    (Array.length par.per_domain <= 2 && Array.length par.per_domain >= 1);
  Util.check_bool "frontier: exhaustive" true par.exhaustive;
  Util.check_bool "frontier: root owns the frontier expansions" true
    (sum (fun d -> d.d_expanded) < par.expanded);
  Util.check_bool "frontier: workers ran the frontier nodes" true
    (sum (fun d -> d.d_branches) > 0);
  Util.check_bool "frontier: per-domain columns within the totals" true
    (sum (fun d -> d.d_dedup_hits) <= par.dedup_hits
     && sum (fun d -> d.d_sleep_skips) <= par.sleep_skips);
  (* path/dedup totals are partition-dependent (each domain owns a table),
     so only verdict-relevant positivity is pinned *)
  Util.check_bool "frontier: totals positive" true (par.paths > 0)

let percentile_estimates () =
  let reg = Obs.Metric.registry ~name:"pct-test" () in
  let h = Obs.Metric.histogram ~buckets:[| 10.; 20.; 40. |] reg "h" in
  Util.check_bool "empty histogram is nan" true
    (Float.is_nan (Obs.Metric.percentile h 50.));
  List.iter (Obs.Metric.observe h) [ 5.; 15.; 15.; 35. ];
  (* cumulative counts: 1 (<=10), 3 (<=20), 4 (<=40); ranks interpolate
     linearly inside the bucket where they fall *)
  Alcotest.(check (float 1e-9)) "p50 interpolates inside (10,20]" 15.
    (Obs.Metric.percentile h 50.);
  Alcotest.(check (float 1e-9)) "p25 at the first bucket bound" 10.
    (Obs.Metric.percentile h 25.);
  (* estimates clamp to the observed range *)
  Alcotest.(check (float 1e-9)) "p0 clamps to the min" 5.
    (Obs.Metric.percentile h 0.);
  Alcotest.(check (float 1e-9)) "p100 clamps to the max" 35.
    (Obs.Metric.percentile h 100.);
  Alcotest.(check (float 1e-9)) "out-of-range p clamps to 100" 35.
    (Obs.Metric.percentile h 250.);
  Util.check_bool "p99 between p50 and max" true
    (let p99 = Obs.Metric.percentile h 99. in
     p99 >= 15. && p99 <= 35.)

let percentile_monotone () =
  let reg = Obs.Metric.registry ~name:"pct-mono" () in
  let h = Obs.Metric.histogram reg "h" in
  (* default power-of-two buckets; a spread of latencies-in-us values *)
  List.iter
    (fun i -> Obs.Metric.observe h (float_of_int (1 + ((i * 37) mod 900))))
    (List.init 200 Fun.id);
  let prev = ref neg_infinity in
  List.iter
    (fun p ->
       let v = Obs.Metric.percentile h (float_of_int p) in
       Util.check_bool (Printf.sprintf "p%d finite" p) true
         (Float.is_finite v);
       Util.check_bool (Printf.sprintf "p%d monotone" p) true (v >= !prev);
       prev := v)
    [ 0; 10; 25; 50; 75; 90; 99; 100 ]

(* Against the exact sorted-sample oracle: p0/p100 must equal the exact
   min/max, and every interior estimate must land inside the same
   power-of-two bucket as the exact order statistic (the interpolation
   can't do better than the bucket resolution, but must never leave it). *)
let percentile_oracle =
  Util.qtest ~count:60 "percentile vs sorted oracle"
    QCheck2.Gen.(list_size (int_range 1 150) (int_range 1 100_000))
    (fun ints ->
       let vals = List.map float_of_int ints in
       let reg = Obs.Metric.registry ~name:"pct-oracle" () in
       let h = Obs.Metric.histogram reg "h" in
       List.iter (Obs.Metric.observe h) vals;
       let sorted = Array.of_list (List.sort compare vals) in
       let n = Array.length sorted in
       let exact p =
         let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
         sorted.(max 0 (min (n - 1) (rank - 1)))
       in
       let bucket_bounds ex =
         (* default buckets are powers of two: [2^i] *)
         let rec go lo i =
           let hi = float_of_int (1 lsl i) in
           if ex <= hi || i >= 20 then (lo, Float.max hi ex) else go hi (i + 1)
         in
         go 0. 0
       in
       Obs.Metric.percentile h 0. = sorted.(0)
       && Obs.Metric.percentile h 100. = sorted.(n - 1)
       && List.for_all
            (fun p ->
               let est = Obs.Metric.percentile h p in
               let lo, hi = bucket_bounds (exact p) in
               est >= lo && est <= hi)
            [ 10.; 25.; 50.; 75.; 90.; 99.; 99.9 ])

(* Depth observations reach an armed metrics registry from the explore
   DFS (the frontier-depth histogram of the trace/metrics sinks). *)
let explore_depth_histogram () =
  let reg = Obs.Metric.registry ~name:"explore-test" () in
  let module T = Timestamp.Simple_oneshot in
  let n = 2 in
  let supplier ~pid ~call = T.program ~n ~pid ~call in
  let cfg =
    Shm.Sim.create ~n ~num_regs:(T.num_registers ~n) ~init:(T.init_value ~n)
  in
  let stats =
    Obs.Hooks.with_hooks (Obs.Hooks.metrics_hooks reg) (fun () ->
        match
          Shm.Explore.explore ~supplier ~calls_per_proc:(Array.make n 1) cfg
        with
        | Shm.Explore.Ok stats -> stats
        | Shm.Explore.Counterexample _ -> Alcotest.fail "counterexample")
  in
  let h = Obs.Metric.histogram reg "explore.depth" in
  Util.check_int "one depth observation per visit" stats.configurations
    (Obs.Metric.hist_count h)

let suite =
  ( "obs",
    [ Util.case "json roundtrips" json_roundtrip;
      Util.case "json parse errors" json_errors;
      Util.case "metric invariants" metric_invariants;
      Util.case "collector agrees with the simulator" collector_vs_sim;
      Util.case "chrome trace is well-formed" trace_well_formed;
      Util.case "disarmed hooks allocate nothing" disarmed_no_alloc;
      Util.case "clock reads are monotonic and allocate nothing" clock_reads;
      Util.case "percentile estimates" percentile_estimates;
      Util.case "percentile is monotone" percentile_monotone;
      percentile_oracle;
      Util.case "explore per-domain stats" explore_per_domain;
      Util.case "explore depth histogram" explore_depth_histogram ] )
