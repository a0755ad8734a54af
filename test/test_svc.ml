(* Service layer: the MPSC inbox, graceful shutdown, batched/unbatched
   equivalence, checker verdicts over served timestamps, determinism. *)

let mpsc_fifo () =
  let q = Util.Inbox.create () in
  Util.check_bool "fresh queue empty" true (Util.Inbox.is_empty q);
  List.iter (fun j -> Util.push_item q (0, j)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list (pair int int))) "drain is FIFO"
    [ (0, 1); (0, 2); (0, 3); (0, 4); (0, 5) ]
    (Util.drain_items q);
  Util.check_bool "drained queue empty" true (Util.Inbox.is_empty q);
  Alcotest.(check (list (pair int int))) "second drain empty" []
    (Util.drain_items q)

let mpsc_concurrent_producers () =
  let q = Util.Inbox.create () in
  let producers = 4 and per = 250 in
  let doms =
    List.init producers (fun i ->
        Domain.spawn (fun () ->
            for j = 0 to per - 1 do
              Util.push_item q (i, j)
            done))
  in
  (* consume concurrently with the producers *)
  let total = producers * per in
  let chunks = ref [] in
  let got = ref 0 in
  while !got < total do
    match Util.drain_items q with
    | [] -> ignore (Unix.sleepf 1e-4)
    | xs ->
      chunks := xs :: !chunks;
      got := !got + List.length xs
  done;
  List.iter Domain.join doms;
  let drained = List.concat (List.rev !chunks) in
  Util.check_int "nothing lost or duplicated" total (List.length drained);
  (* each producer's pushes stay in order across the merged drains *)
  for i = 0 to producers - 1 do
    let js =
      List.filter_map (fun (p, j) -> if p = i then Some j else None) drained
    in
    Alcotest.(check (list int))
      (Printf.sprintf "producer %d FIFO" i)
      (List.init per Fun.id) js
  done

let shutdown_drains_inflight () =
  let module S = Svc.Service.Make (Timestamp.Efr) in
  let svc = S.start ~batch_max:4 ~shards:2 ~n:4 () in
  let sessions = List.init 4 (fun _ -> S.open_session svc) in
  (* pile up pipelined requests, then stop while they are in flight *)
  let tickets =
    List.concat_map (fun s -> List.init 25 (fun _ -> S.submit s)) sessions
  in
  S.stop svc;
  let resps = List.map S.await tickets in
  Util.check_int "every in-flight request answered" 100 (List.length resps);
  let served =
    Array.fold_left (fun a (st : S.shard_stats) -> a + st.served) 0
      (S.stats svc)
  in
  Util.check_int "shard stats agree" 100 served;
  Util.check_bool "submit after stop raises Stopped" true
    (match S.submit (List.hd sessions) with
     | _ -> false
     | exception S.Stopped -> true);
  (* stop is idempotent *)
  S.stop svc

let batched_equals_unbatched () =
  let open Svc.Loadgen in
  let base =
    { default with clients = 3; requests_per_client = 20; n = 3; seed = 42 }
  in
  let unbatched =
    run Timestamp.Registry.efr
      { base with mode = Service { shards = 1; batch_max = 1 }; pipeline = 1 }
  in
  let batched =
    run Timestamp.Registry.efr
      { base with mode = Service { shards = 2; batch_max = 16 }; pipeline = 4 }
  in
  Util.check_int "unbatched serves every request" 60 unbatched.lg_total;
  Util.check_int "batched serves every request" 60 batched.lg_total;
  Util.check_bool "unbatched passes the checker" true
    (unbatched.lg_violation = None);
  Util.check_bool "batched passes the checker" true
    (batched.lg_violation = None);
  Util.check_bool "unbatched checked real hb pairs" true
    (unbatched.lg_hb_pairs > 0);
  Util.check_bool "batched checked real hb pairs" true
    (batched.lg_hb_pairs > 0);
  (* per-shard served counts add up *)
  Util.check_int "batched shard counts sum" 60
    (List.fold_left (fun a s -> a + s.sr_served) 0 batched.lg_shards)

let oneshot_service_checks () =
  let open Svc.Loadgen in
  let r =
    run Timestamp.Registry.sqrt_oneshot
      { default with
        mode = Service { shards = 2; batch_max = 8 };
        clients = 3; requests_per_client = 10; pipeline = 3; n = 4 }
  in
  (* the loadgen raises n to the 30 one-shot process ids it needs *)
  Util.check_int "one-shot serves every request" 30 r.lg_total;
  Util.check_bool "one-shot passes the checker" true (r.lg_violation = None);
  Util.check_bool "one-shot checked real hb pairs" true (r.lg_hb_pairs > 0)

let direct_mode_checks () =
  let open Svc.Loadgen in
  let r =
    run Timestamp.Registry.vector
      { default with mode = Direct; clients = 3; requests_per_client = 15;
        n = 3 }
  in
  Util.check_int "direct serves every request" 45 r.lg_total;
  Util.check_bool "direct passes the checker" true (r.lg_violation = None)

let single_domain_deterministic () =
  let open Svc.Loadgen in
  let cfg =
    { default with
      mode = Service { shards = 1; batch_max = 8 };
      clients = 1; requests_per_client = 30; pipeline = 4; n = 2; seed = 7 }
  in
  let a = run Timestamp.Registry.lamport cfg in
  let b = run Timestamp.Registry.lamport cfg in
  Util.check_int "one client serves every request" 30 a.lg_total;
  Alcotest.(check (list string)) "identical served sequence under a fixed seed"
    (Lazy.force a.lg_timestamps) (Lazy.force b.lg_timestamps);
  Util.check_bool "deterministic run passes the checker" true
    (a.lg_violation = None)

let open_loop_service_checks () =
  let open Svc.Loadgen in
  let r =
    run Timestamp.Registry.efr
      { default with
        mode = Service { shards = 2; batch_max = 16 };
        arrival = Open { rate = 5000. };
        clients = 2; requests_per_client = 40; pipeline = 4; n = 2 }
  in
  Util.check_int "open loop serves every request" 80 r.lg_total;
  Util.check_bool "open loop passes the checker" true (r.lg_violation = None);
  Util.check_bool "mode string names the rate" true
    (String.length r.lg_mode > 0
     &&
     match String.index_opt r.lg_mode '=' with
     | Some _ -> true
     | None -> false);
  Util.check_bool "open-loop percentiles are ordered" true
    (r.lg_p50_us <= r.lg_p90_us
     && r.lg_p90_us <= r.lg_p99_us
     && r.lg_p99_us <= r.lg_p999_us
     && r.lg_p999_us <= r.lg_max_us);
  Util.check_bool "latencies were recorded" true (r.lg_max_us > 0.)

let open_loop_direct_checks () =
  let open Svc.Loadgen in
  let r =
    run Timestamp.Registry.vector
      { default with
        mode = Direct;
        arrival = Open { rate = 8000. };
        clients = 2; requests_per_client = 30; n = 2 }
  in
  Util.check_int "direct open loop serves every request" 60 r.lg_total;
  Util.check_bool "direct open loop passes the checker" true
    (r.lg_violation = None);
  Util.check_bool "direct open-loop percentiles ordered" true
    (r.lg_p50_us <= r.lg_p99_us && r.lg_p999_us <= r.lg_max_us)

(* Steady-state submit/await_ts words over 200 requests on a warmed-up
   session.  [Gc.minor_words] itself boxes its float results; anything
   beyond a few words means a per-request allocation crept back in. *)
let steady_state_words ~telemetry =
  let module S = Svc.Service.Make (Timestamp.Lamport) in
  let svc = S.start ~shards:1 ~telemetry ~n:2 () in
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
  (* gauges answer while the service is live *)
  let served =
    match List.assoc_opt "s0.served" (S.telemetry_sources svc) with
    | Some f -> f ()
    | None -> Alcotest.fail "s0.served source missing"
  in
  S.stop svc;
  (w1 -. w0, served)

let service_zero_alloc () =
  let delta, _ = steady_state_words ~telemetry:false in
  Util.check_bool
    (Printf.sprintf "steady-state submit/await_ts allocated %.0f minor words"
       delta)
    true (delta < 64.)

(* The live gauges must not reintroduce per-request allocation: the
   telemetry-armed submit/await_ts path stays pooled (the E16 overhead
   budget assumes this). *)
let telemetry_zero_alloc () =
  let delta, served = steady_state_words ~telemetry:true in
  Util.check_bool "served gauge counts" true (served > 0.);
  Util.check_bool
    (Printf.sprintf "telemetry-armed submit/await_ts allocated %.0f minor words"
       delta)
    true (delta < 64.)

(* Free-list exhaustion: the per-session record pool holds at most 256
   records, and the pinned behavior past that point is EXTEND — [submit]
   falls back to a fresh allocation when the pool is empty and never
   blocks or rejects; [release] beyond the cap drops the surplus record
   instead of growing the pool.  300 pipelined in-flight requests on one
   session must therefore all be served, in session FIFO order, with
   distinct call numbers (no record handed out twice while in flight),
   and the pool gauge must sit at the cap afterwards, not at 300. *)
let freelist_exhaustion_extends () =
  let inflight = 300 in
  let module S = Svc.Service.Make (Timestamp.Lamport) in
  let svc = S.start ~shards:1 ~telemetry:true ~n:2 () in
  let session = S.open_session svc in
  let tickets = List.init inflight (fun _ -> S.submit session) in
  let resps = List.map S.await tickets in
  Util.check_int "every pipelined request served" inflight
    (List.length resps);
  List.iteri
    (fun i (r : S.resp) ->
       Util.check_int (Printf.sprintf "request %d keeps session order" i) i
         r.call)
    resps;
  List.iter (fun t -> S.release session t) tickets;
  let pool_after =
    match List.assoc_opt "svc.pool" (S.telemetry_sources svc) with
    | Some f -> int_of_float (f ())
    | None -> Alcotest.fail "svc.pool source missing"
  in
  S.stop svc;
  Util.check_bool
    (Printf.sprintf "release drops past the 256-record cap (pool = %d)"
       pool_after)
    true
    (pool_after > 0 && pool_after <= 256);
  let served =
    Array.fold_left (fun a (st : S.shard_stats) -> a + st.served) 0
      (S.stats svc)
  in
  Util.check_int "shard stats saw all of them" inflight served

let telemetry_sources_totals () =
  let module S = Svc.Service.Make (Timestamp.Efr) in
  let svc = S.start ~shards:2 ~batch_max:4 ~telemetry:true ~n:4 () in
  let sessions = List.init 4 (fun _ -> S.open_session svc) in
  List.iter (fun s -> for _ = 1 to 25 do ignore (S.get_ts s) done) sessions;
  S.stop svc;
  let sources = S.telemetry_sources svc in
  let v name =
    match List.assoc_opt name sources with
    | Some f -> f ()
    | None -> Alcotest.failf "source %s missing" name
  in
  Alcotest.(check (float 1e-9)) "served gauges sum to the total" 100.
    (v "s0.served" +. v "s1.served");
  Alcotest.(check (float 1e-9)) "depth drains to zero after stop" 0.
    (v "s0.depth" +. v "s1.depth");
  Util.check_bool "chunks counted" true (v "s0.chunks" +. v "s1.chunks" > 0.);
  Util.check_bool "batch p50 within batch_max" true
    (let p = v "s0.batch_p50" in p >= 1. && p <= 4.);
  (* attaching telemetry to a disarmed service is a misuse *)
  let disarmed = S.start ~shards:1 ~n:2 () in
  let ts = Obs.Timeseries.create () in
  Util.check_bool "attach_telemetry requires gauges" true
    (match S.attach_telemetry disarmed ts with
     | () -> false
     | exception Invalid_argument _ -> true);
  S.stop disarmed

(* Nothing polls: an idle service's workers are parked, so the process
   spends well under 5 ms of CPU over half a second.  (Workers that slept
   in 50us quanta instead spent about 30 ms.) *)
let idle_service_parks () =
  let module S = Svc.Service.Make (Timestamp.Lamport) in
  let svc = S.start ~shards:2 ~n:2 () in
  let session = S.open_session svc in
  for _ = 1 to 50 do
    ignore (S.get_ts session)
  done;
  Unix.sleepf 0.05;  (* let every waiter finish its spin and park *)
  let ms = Util.idle_cpu_ms 0.5 in
  S.stop svc;
  Util.check_bool
    (Printf.sprintf "idle service used %.2f ms of CPU in 500 ms" ms)
    true (ms < 5.0)

(* The load generator keeps nothing per call but the columns sized
   before the run, so a closed loop of Lamport stamps (immediate ints)
   promotes nothing per call: at most a word per stamp, against the ~15
   that a list of kept stamp records costs. *)
let direct_loop_promotes_nothing () =
  let stamps = 50_000 in
  let cfg =
    { Svc.Loadgen.default with
      clients = 1; requests_per_client = stamps; n = 1 }
  in
  let p0 = (Gc.quick_stat ()).promoted_words in
  let r = Svc.Loadgen.run Timestamp.Registry.lamport cfg in
  let promoted = (Gc.quick_stat ()).promoted_words -. p0 in
  Util.check_bool "the run passes the checker" true (r.lg_violation = None);
  Util.check_int "every stamp served" stamps r.lg_total;
  let per_stamp = promoted /. float_of_int stamps in
  if per_stamp > 1. then
    Alcotest.failf "%.0f words promoted over %d stamps (%.2f per stamp)"
      promoted stamps per_stamp

(* [Drive.run] calls [teardown] once on every path: a telemetry interval
   that [Obs.Timeseries.create] refuses, and a client whose connect
   raises before the ready barrier (client 0 runs on the calling domain,
   so the run must re-raise rather than wait for it), as well as a run
   that succeeds. *)
let drive_tears_down_once () =
  let module Cd = Svc.Client.Direct (Timestamp.Lamport) in
  let module D = Svc.Loadgen.Drive (Cd) in
  let teardowns = ref 0 in
  let run ?(refuse = -1) cfg =
    teardowns := 0;
    let ctx = Cd.create_ctx ~n:cfg.Svc.Loadgen.clients () in
    D.run
      { D.connect =
          (fun i -> if i = refuse then failwith "refused" else Cd.connect ctx);
        num_shards = 1;
        impl = Timestamp.Lamport.name;
        mode_label = "teardown";
        backend_label = "boxed";
        compare_ts = Timestamp.Lamport.compare_ts;
        pp_ts = Timestamp.Lamport.pp_ts;
        attach = None;
        teardown = (fun () -> incr teardowns);
        service_stats = None }
      cfg
  in
  let cfg =
    { Svc.Loadgen.default with clients = 2; requests_per_client = 20 }
  in
  let r = run cfg in
  Util.check_int "a run serves every request" 40 r.lg_total;
  Util.check_int "teardown once after a run" 1 !teardowns;
  let telemetry =
    Some
      { Svc.Loadgen.tel_out = Filename.null; tel_append = false;
        tel_interval_us = 0 }
  in
  (match run { cfg with telemetry } with
   | _ -> Alcotest.fail "a zero telemetry interval was accepted"
   | exception Invalid_argument _ -> ());
  Util.check_int "teardown once after a refused interval" 1 !teardowns;
  List.iter
    (fun refuse ->
       (match run ~refuse cfg with
        | _ -> Alcotest.failf "client %d's refused connect was ignored" refuse
        | exception Failure _ -> ());
       Util.check_int
         (Printf.sprintf "teardown once after client %d's connect raised"
            refuse)
         1 !teardowns)
    [ 0; 1 ]

let suite =
  ( "svc",
    [ Util.case "mpsc drain is FIFO" mpsc_fifo;
      Util.case "mpsc concurrent producers" mpsc_concurrent_producers;
      Util.case "shutdown drains in-flight requests" shutdown_drains_inflight;
      Util.case "batched and unbatched serve the same requests"
        batched_equals_unbatched;
      Util.case "one-shot service passes the checker" oneshot_service_checks;
      Util.case "direct mode passes the checker" direct_mode_checks;
      Util.case "single-domain service is deterministic"
        single_domain_deterministic;
      Util.case "open-loop service passes the checker" open_loop_service_checks;
      Util.case "open-loop direct mode passes the checker"
        open_loop_direct_checks;
      Util.case "telemetry-armed hot path allocates nothing"
        telemetry_zero_alloc;
      Util.slow_case "pooled service path is allocation-free"
        service_zero_alloc;
      Util.case "free-list exhaustion extends, never blocks"
        freelist_exhaustion_extends;
      Util.case "telemetry sources report exact totals"
        telemetry_sources_totals;
      Util.case "an idle service parks: no CPU burnt" idle_service_parks;
      Util.case "a direct closed loop promotes under a word per stamp"
        direct_loop_promotes_nothing;
      Util.case "Drive.run tears down once on every path"
        drive_tears_down_once ] )
