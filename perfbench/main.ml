(* perfbench: the serving stack's benchmark.

   One workload per run.  A run repeats rounds until --seconds is spent;
   a round starts a fresh server (or in-process service), connects the
   clients, drives a fixed number of stamps through Svc.Loadgen.Drive,
   checks every stamp with Timestamp.Checker.check_timed (inside Drive)
   and stops the server.  End-to-end metrics aggregate the rounds (see
   [end_to_end]).
   With --trace 1 the rounds alternate plain and traced; the traced ones
   give the per-layer metrics, and traced minus plain is the tracing
   overhead.  The last line of stdout is the JSON result.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--stamps N] [--fault none|violation|server]
   Normally started through run.py, which builds it first. *)

let now_s = Obs.Trace.Clock.now_s

let cpu_s = Server_proc.cpu_s

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type transport = Wire of { lease : int } | Inproc

type workload = {
  name : string;
  impl : Timestamp.Registry.impl;
  transport : transport;
  arrival : Svc.Loadgen.arrival;
  clients : int;
  pipeline : int;
  stamps : int;  (* per round, every one checked *)
}

let wire_n = 8

let workloads =
  [ { name = "wire-stamp";
      impl = Timestamp.Registry.lamport;
      transport = Wire { lease = 1 };
      arrival = Closed;
      clients = 2;
      pipeline = 8;
      stamps = 5_000 };
    (* Not in BENCHMARK.json: its p99 follows the host's stalls rather
       than the code (README.md).  Run it by hand for the read path's
       per-layer metrics. *)
    { name = "lease-open";
      impl = Timestamp.Registry.efr;
      transport = Wire { lease = 16 };
      arrival = Open { rate = 10_000. };
      clients = 2;
      pipeline = 4;
      stamps = 5_000 };
    { name = "oneshot-inproc";
      impl = Timestamp.Registry.sqrt_oneshot;
      transport = Inproc;
      arrival = Closed;
      (* one client domain: with two beside the service's worker, three
         busy domains share two cores and throughput swings with host
         scheduling; one client with 16 in flight keeps the worker's queue
         as deep as two clients x 8 *)
      clients = 1;
      pipeline = 16;
      stamps = 5_000 } ]

(* The one-shot object needs a fresh process id per stamp; n = 20000
   gives it 2 sqrt(n) ~ 283 registers whatever the round size. *)
let n_of wl ~stamps =
  match wl.transport with Wire _ -> wire_n | Inproc -> max stamps 20_000

type options = {
  seed : int;
  seconds : float;
  trace : bool;
  stamps : int;
  fault : [ `None | `Violation | `Server ];
}

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Percentile of a sorted array of clock differences.  The wall clock
   reads whole microseconds, so a sample [v] stands for [v - 0.5, v + 0.5)
   and the rank is interpolated within the run of samples tied at [v] —
   the grouped-data percentile.  Without it a median reads the same
   whole number on every run and hides any change below 1 us. *)
let pct s p =
  let n = Array.length s in
  if n = 0 then nan
  else begin
    let rank = Float.min (p /. 100. *. float_of_int n) (float_of_int n -. 0.5) in
    let v = s.(int_of_float rank) in
    let lo = ref (int_of_float rank) and hi = ref (int_of_float rank) in
    while !lo > 0 && s.(!lo - 1) = v do decr lo done;
    while !hi < n - 1 && s.(!hi + 1) = v do incr hi done;
    let tied = float_of_int (!hi - !lo + 1) in
    v -. 0.5 +. ((rank -. float_of_int !lo) /. tied)
  end

let median xs =
  let s = sorted (Array.of_list xs) in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* One round                                                           *)

type counters = {
  requests : int;
  leases : int;
  bytes : int;
  served : int;
  batches : int;
  max_batch : int;
}

let zero =
  { requests = 0; leases = 0; bytes = 0; served = 0; batches = 0;
    max_batch = 0 }

let counters_of_stats ((shards : Net.Frame.shard_stat list), conns) =
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  { requests = sum (fun (c : Net.Frame.conn_stat) -> c.cn_requests) conns;
    leases = sum (fun (c : Net.Frame.conn_stat) -> c.cn_leases) conns;
    bytes =
      sum (fun (c : Net.Frame.conn_stat) -> c.cn_bytes_in + c.cn_bytes_out) conns;
    served = sum (fun s -> s.Net.Frame.ss_served) shards;
    batches = sum (fun s -> s.Net.Frame.ss_batches) shards;
    max_batch =
      List.fold_left (fun m s -> max m s.Net.Frame.ss_max_batch) 0 shards }

let diff a b =
  { requests = b.requests - a.requests;
    leases = b.leases - a.leases;
    bytes = b.bytes - a.bytes;
    served = b.served - a.served;
    batches = b.batches - a.batches;
    max_batch = b.max_batch }

(* What a round needs from its transport once the server is up. *)
type 'c ops = {
  connect : unit -> 'c;  (* one client handle, handshake included *)
  snapshot : unit -> counters;  (* cumulative server counters *)
  server_cpu_s : unit -> float;  (* 0 when there is no server process *)
  depth : (unit -> float) option;  (* the service's queue-depth gauge *)
  finish : unit -> counters;  (* final counters, then stop the server *)
  server_domains : int;
  service_domains : int;
}

type round = {
  warmup : bool;
  traced : bool;
  attempted : int;
  error : string option;  (* exception, or checker violation *)
  served : int;
  elapsed_s : float;
  lat : float array;  (* sorted, microseconds *)
  setup_s : float;
  server_start_s : float;
  connect_s : float;
  verify_s : float;
  pairs : int;
  client_cpu_s : float;
  server_cpu_s : float;
  calls : int;
  call_us : float array;
  late : float array;
  depth : float array;
  ctr : counters;
  server_domains : int;
  service_domains : int;
  trace : Obs.Trace.t option;
}

let failed_round ~traced ~attempted msg =
  { warmup = false; traced; attempted; error = Some msg; served = 0; elapsed_s = nan;
    lat = [||]; setup_s = nan; server_start_s = nan; connect_s = nan;
    verify_s = nan; pairs = 0; client_cpu_s = nan; server_cpu_s = nan;
    calls = 0; call_us = [||]; late = [||]; depth = [||]; ctr = zero;
    server_domains = 0; service_domains = 0; trace = None }

module Round (C : Svc.Client.S) = struct
  module W = Wrap.Make (C)
  module D = Svc.Loadgen.Drive (W)

  let run ~(start : traced:bool -> C.t ops) ~(cfg : Svc.Loadgen.cfg) ~impl
      ~compare_ts ~pp_ts ~traced =
    let attempted = cfg.clients * cfg.requests_per_client in
    let t0 = now_s () in
    match start ~traced with
    | exception e ->
      (failed_round ~traced ~attempted (Printexc.to_string e), [||])
    | ops -> (
        let finished = ref false in
        let finish () =
          finished := true;
          ops.finish ()
        in
        try
          let t1 = now_s () in
          let inner = Array.init cfg.clients (fun _ -> ops.connect ()) in
          let t2 = now_s () in
          let c0 = ops.snapshot () in
          let tracing =
            if traced then
              let tr = Obs.Trace.create ~process_name:"perfbench" () in
              Some { Wrap.tr; tr_base_us = now_s () *. 1e6; depth = ops.depth }
            else None
          in
          let open_iv_us =
            match cfg.arrival with
            | Open { rate } -> Some (1e6 *. float_of_int cfg.clients /. rate)
            | Closed -> None
          in
          let cpu0 = cpu_s () in
          let scpu0 = ops.server_cpu_s () in
          let rd =
            { Wrap.clients = cfg.clients; open_iv_us; t0_us = now_s () *. 1e6;
              tracing }
          in
          let handles = Array.mapi (W.wrap rd) inner in
          let cpu1 = ref nan and scpu1 = ref nan in
          let c1 = ref zero and t_verify = ref nan in
          let report =
            D.run
              { D.connect = (fun i -> handles.(i));
                num_shards = 1;
                impl;
                mode_label = "perfbench";
                backend_label = "boxed";
                compare_ts;
                pp_ts;
                attach = None;
                (* the load is over: stop the server before Drive
                   checks the stamps, so the check runs alone *)
                teardown =
                  (fun () ->
                     cpu1 := cpu_s ();
                     scpu1 := ops.server_cpu_s ();
                     c1 := finish ();
                     t_verify := now_s ());
                service_stats = None }
              cfg
          in
          let t_end = now_s () in
          let hs = Array.to_list handles in
          (* Each client's first tenth of the round is its warm-up: the
             client domain spawns after the schedule's origin and the
             fresh server's first lease waits for the anchor refresher,
             so those stamps carry a start-up transient of several ms
             that a long-running server never shows. *)
          let samples ~skip (f : W.t -> Wrap.Vec.t) =
            Wrap.Vec.concat ~skip (List.map f hs)
          in
          (* Each client's first tenth of the round is its warm-up: the
             client domain spawns after the schedule's origin and the
             fresh server's first lease waits for the anchor refresher,
             so those stamps carry a start-up transient of several ms
             that a long-running server never shows. *)
          let lat = samples ~skip:(cfg.requests_per_client / 10) (fun h -> h.lat) in
          let late = samples ~skip:0 (fun h -> h.late) in
          let lat, late =
            match open_iv_us with
            | None -> (lat, late)
            | Some _ ->
              let b =
                Wrap.open_offset ~drive_max_us:report.lg_max_us
                  (samples ~skip:0 (fun h -> h.lat))
              in
              (Array.map (fun x -> x -. b) lat, Array.map (fun x -> x -. b) late)
          in
          let call_us = samples ~skip:0 (fun h -> h.call_us) in
          let stamps =
            if traced then
              Array.of_list (List.concat_map (fun (h : W.t) -> h.stamps) hs)
            else [||]
          in
          ( { warmup = false; traced; attempted; error = report.lg_violation;
              served = report.lg_total;
              elapsed_s = report.lg_elapsed_s;
              lat = sorted lat;
              setup_s = t2 -. t0;
              server_start_s = t1 -. t0;
              connect_s = t2 -. t1;
              verify_s = t_end -. !t_verify;
              pairs = report.lg_hb_pairs;
              client_cpu_s = !cpu1 -. cpu0;
              server_cpu_s = !scpu1 -. scpu0;
              calls = Array.length call_us;
              call_us;
              late;
              depth = samples ~skip:0 (fun h -> h.depth);
              ctr = diff c0 !c1;
              server_domains = ops.server_domains;
              service_domains = ops.service_domains;
              trace = Option.map (fun (g : Wrap.tracing) -> g.tr) tracing },
            stamps )
        with e ->
          if not !finished then (try ignore (finish ()) with _ -> ());
          (failed_round ~traced ~attempted (Printexc.to_string e), [||]))
end

(* ------------------------------------------------------------------ *)
(* Layer probes, timed directly on a traced round's own data           *)

let time_per ~reps f =
  (* median over [reps] passes of one call's wall time *)
  median (List.init reps (fun _ -> let t = now_s () in f (); now_s () -. t))

(* codec: encode every stamp as its v2 reply frame, then decode the
   frames back; ns per stamp and minor words per stamp (both ways) *)
let codec_probe (type r) (module T : Timestamp.Intf.S with type result = r)
    (stamps : r Svc.Client.stamp array) =
  let n = Array.length stamps in
  if n = 0 then (nan, nan, nan)
  else begin
    let codec = Net.Codec.for_impl (module T) in
    let b = Net.Buf.create () in
    let encode (s : r Svc.Client.stamp) =
      Net.Buf.clear b;
      Net.Frame.write_stamp_v2 b codec ~pid:s.st_pid ~call:s.st_call
        ~shard:s.st_shard ~start_tick:s.st_start_tick ~end_tick:s.st_end_tick
        s.st_ts
    in
    let payloads =
      Array.map
        (fun s ->
           encode s;
           let c = Net.Buf.contents b in
           String.sub c 4 (String.length c - 4))
        stamps
    in
    let decode p =
      match Net.Frame.decode_resp p with
      | Ok (_, Net.Frame.Stamp w) -> ignore (Net.Codec.decode_exn codec w.w_ts)
      | _ -> failwith "codec probe: frame does not decode to a stamp"
    in
    let enc () = Array.iter encode stamps in
    let dec () = Array.iter decode payloads in
    let enc_s = time_per ~reps:5 enc and dec_s = time_per ~reps:5 dec in
    let w0 = Gc.minor_words () in
    enc ();
    dec ();
    let words = Gc.minor_words () -. w0 in
    let per x = x /. float_of_int n in
    (per (enc_s *. 1e9), per (dec_s *. 1e9), per words)
  end

(* exec: single-domain getTS through Svc.Client.Direct, and shared-memory
   operations per getTS, on the same implementation and n *)
let exec_probe (type r) (module T : Timestamp.Intf.S with type result = r) ~n
    ~count =
  let module Dc = Svc.Client.Direct (T) in
  let count = match T.kind with `One_shot -> min count n | `Long_lived -> count in
  let c = Dc.connect (Dc.create_ctx ~n ()) in
  let t = now_s () in
  for _ = 1 to count do
    ignore (Dc.stamp c)
  done;
  let getts_us = (now_s () -. t) *. 1e6 /. float_of_int count in
  let regs =
    Multicore.Exec.make_store ~backend:`Boxed ~num:(T.num_registers ~n)
      ~init:(T.init_value ~n)
  in
  let ops = ref 0 in
  for j = 0 to count - 1 do
    let pid, call = match T.kind with `One_shot -> (j, 0) | `Long_lived -> (0, j) in
    let _, k = Multicore.Exec.run_store_counting ~regs (T.program ~n ~pid ~call) in
    ops := !ops + k
  done;
  (getts_us, float_of_int !ops /. float_of_int count, T.num_registers ~n)

(* ------------------------------------------------------------------ *)
(* A run                                                               *)

type metric = { m_name : string; m_value : float; m_unit : string; m_note : string }

let metric ?(note = "") m_name m_unit m_value =
  { m_name; m_value; m_unit; m_note = note }

let ok r = r.error = None

let medianf rounds f = median (List.map f rounds)

(* Throughput and latency come from the run's best round.  The host is a
   shared 2-vCPU VM: its stalls (several ms, several a second) hit a
   varying share of rounds, and dominate any median or pooled tail of an
   open loop.  The best round is the figure they leave alone, and it still
   moves with the code.  CPU, set-up and check times are medians. *)
let end_to_end rounds ~rss_mb =
  let m = medianf rounds in
  let best hi f =
    List.fold_left
      (fun acc r -> if hi then Float.max acc (f r) else Float.min acc (f r))
      (if hi then neg_infinity else infinity)
      rounds
  in
  let k = List.length rounds in
  let samples = match rounds with r :: _ -> Array.length r.lat | [] -> 0 in
  let best_note = Printf.sprintf "best of %d rounds" k in
  let lat_note = Printf.sprintf "best of %d rounds, %d samples each" k samples in
  let note = Printf.sprintf "median of %d rounds" k in
  [ metric "stamps_per_s" "1/s" ~note:best_note
      (best true (fun r -> float_of_int r.served /. r.elapsed_s));
    metric "p50_us" "us" ~note:lat_note (best false (fun r -> pct r.lat 50.));
    metric "p99_us" "us" ~note:lat_note (best false (fun r -> pct r.lat 99.));
    metric "cpu_us_per_stamp" "us" ~note:(note ^ ", client + server")
      (m (fun r ->
           (r.client_cpu_s +. r.server_cpu_s) *. 1e6 /. float_of_int r.served));
    metric "setup_s" "s" ~note (m (fun r -> r.setup_s));
    metric "verify_s" "s" ~note (m (fun r -> r.verify_s));
    metric "rss_mb" "MB" ~note:"peak RSS of the serving process" rss_mb ]

let per_layer (module T : Timestamp.Intf.S) wl ~n ~codec rounds ~plain =
  let m = medianf rounds in
  let per_stamp f = m (fun r -> f r /. float_of_int r.served) in
  let wire = match wl.transport with Wire _ -> true | Inproc -> false in
  let inproc_only x = if wire then 0. else x in
  let exec_us, reg_ops, registers = exec_probe (module T) ~n ~count:20_000 in
  let enc_ns, dec_ns, words = codec in
  let overhead name =
    let v l = (List.find (fun x -> x.m_name = name) l).m_value in
    let traced = end_to_end rounds ~rss_mb:nan in
    let base = end_to_end plain ~rss_mb:nan in
    metric ("overhead." ^ name)
      (List.find (fun x -> x.m_name = name) traced).m_unit
      (v traced -. v base) ~note:"traced rounds minus plain rounds"
  in
  [ metric "loadgen.late_us_p50" "us"
      ~note:
        (match wl.arrival with
         | Open _ -> "send time minus scheduled time"
         | Closed -> "gap between a burst returning and the next one")
      (m (fun r -> pct (sorted r.late) 50.));
    metric "loadgen.cpu_s" "s" ~note:"generator process CPU in the load window"
      (m (fun r -> r.client_cpu_s));
    metric "client.calls" "count" (m (fun r -> float_of_int r.calls));
    metric "client.call_us_p50" "us" (m (fun r -> pct (sorted r.call_us) 50.));
    metric "client.lease_fetches" "count" (m (fun r -> float_of_int r.ctr.leases));
    metric "client.minted_frac" "fraction"
      ~note:"stamps that cost no round trip"
      (if wire then
         (* the closing Stats request counts itself *)
         1. -. per_stamp (fun r -> float_of_int (r.ctr.requests - 1))
       else 0.);
    metric "codec.encode_ns" "ns" enc_ns;
    metric "codec.decode_ns" "ns" dec_ns;
    metric "codec.minor_words_per_stamp" "words" words;
    metric "wire.bytes_per_stamp" "bytes" (per_stamp (fun r -> float_of_int r.ctr.bytes));
    metric "server.requests_per_stamp" "ratio"
      (if wire then per_stamp (fun r -> float_of_int (r.ctr.requests - 1))
       else 0.);
    metric "server.queued_frac" "ratio" ~note:"shard-served / requests"
      (if wire then
         m (fun r -> float_of_int r.ctr.served /. float_of_int (r.ctr.requests - 1))
       else 0.);
    metric "server.cpu_us_per_stamp" "us" (per_stamp (fun r -> r.server_cpu_s *. 1e6));
    metric "server.domains" "count" (m (fun r -> float_of_int r.server_domains));
    metric "svc.served" "count" (m (fun r -> float_of_int r.ctr.served));
    metric "svc.batches" "count" (m (fun r -> float_of_int r.ctr.batches));
    metric "svc.batch_mean" "count"
      (m (fun r -> float_of_int r.ctr.served /. float_of_int r.ctr.batches));
    metric "svc.max_batch" "count" (m (fun r -> float_of_int r.ctr.max_batch));
    metric "svc.served_per_stamp" "ratio"
      (per_stamp (fun r -> float_of_int r.ctr.served));
    metric "svc.await_us_p50" "us" ~note:"submit to publish; in-process only"
      (inproc_only (m (fun r -> pct r.lat 50.)));
    metric "svc.depth_p50" "count" ~note:"queue depth at each call; in-process only"
      (inproc_only (m (fun r -> pct (sorted r.depth) 50.)));
    metric "exec.getts_us" "us" ~note:"single domain, Svc.Client.Direct" exec_us;
    metric "exec.reg_ops_per_stamp" "count" reg_ops;
    metric "exec.registers" "count" ~note:"num_registers ~n"
      (float_of_int registers);
    metric "checker.pairs" "count" (m (fun r -> float_of_int r.pairs));
    metric "checker.ns_per_pair" "ns"
      (m (fun r -> r.verify_s *. 1e9 /. float_of_int r.pairs));
    metric "setup.server_start_s" "s" (m (fun r -> r.server_start_s));
    metric "setup.connect_s" "s" (m (fun r -> r.connect_s));
    overhead "stamps_per_s";
    overhead "p50_us";
    overhead "p99_us";
    overhead "cpu_us_per_stamp" ]

let socket_dir = ".perfbench"

let run_workload (type r) (module T : Timestamp.Intf.S with type result = r)
    (wl : workload) (o : options) =
  let stamps = if o.stamps > 0 then o.stamps else wl.stamps in
  let stamps = max wl.clients (stamps / wl.clients * wl.clients) in
  let n = n_of wl ~stamps in
  let cfg =
    { Svc.Loadgen.default with
      arrival = wl.arrival;
      clients = wl.clients;
      requests_per_client = stamps / wl.clients;
      pipeline = wl.pipeline;
      n;
      seed = o.seed }
  in
  let compare_ts =
    match o.fault with
    | `Violation -> fun a b -> not (T.compare_ts a b)
    | `None | `Server -> T.compare_ts
  in
  (try Unix.mkdir socket_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let run_round, quit =
    match wl.transport with
    | Wire { lease } ->
      let addr =
        Net.Conn.Unix_path
          (Printf.sprintf "%s/%s-%d.sock" socket_dir wl.name (Unix.getpid ()))
      in
      (* fork before any domain exists *)
      let srv =
        Server_proc.fork (module T) ~addr ~n ~fail_start:(o.fault = `Server)
      in
      let module C = Net.Client.Make (T) in
      let module R = Round (C) in
      let start ~traced:_ =
        match Server_proc.call srv Start with
        | Started { domains; service_domains } ->
          let ctl = lazy (C.connect addr) in
          let snapshot () = counters_of_stats (C.stats (Lazy.force ctl)) in
          { connect = (fun () -> C.connect ~lease addr);
            snapshot;
            server_cpu_s =
              (fun () ->
                 match Server_proc.call srv Cpu with
                 | Cpu_s s -> s
                 | _ -> failwith "server process: bad reply");
            depth = None;
            finish =
              (fun () ->
                 Fun.protect snapshot ~finally:(fun () ->
                     if Lazy.is_val ctl then C.close (Lazy.force ctl);
                     ignore (Server_proc.call srv Stop)));
            server_domains = domains;
            service_domains }
        | Failed msg -> failwith msg
        | _ -> failwith "server process: bad reply"
      in
      ( (fun ~traced ->
          R.run ~start ~cfg ~impl:T.name ~compare_ts ~pp_ts:T.pp_ts ~traced),
        fun () -> Server_proc.quit srv )
    | Inproc ->
      let module S = Svc.Service.Make (T) in
      let module C = Svc.Client.Inproc (T) in
      let module R = Round (C) in
      let start ~traced =
        let svc = S.start ~shards:Server_proc.shards ~telemetry:traced ~n () in
        let counters () =
          let st = Array.to_list (S.stats svc) in
          let sum f = List.fold_left (fun acc s -> acc + f s) 0 st in
          { zero with
            served = sum (fun (s : S.shard_stats) -> s.served);
            batches = sum (fun (s : S.shard_stats) -> s.batches);
            max_batch =
              List.fold_left (fun m (s : S.shard_stats) -> max m s.max_batch) 0 st }
        in
        { connect = (fun () -> C.connect svc);
          snapshot = counters;
          server_cpu_s = (fun () -> 0.);
          depth = List.assoc_opt "s0.depth" (S.telemetry_sources svc);
          finish =
            (fun () ->
               S.stop svc;
               counters ());
          server_domains = 0;
          service_domains = Server_proc.shards }
      in
      ( (fun ~traced ->
          R.run ~start ~cfg ~impl:T.name ~compare_ts ~pp_ts:T.pp_ts ~traced),
        fun () -> Server_proc.peak_rss_mb () )
  in
  let rss_mb = ref nan in
  let rounds, last_stamps =
    Fun.protect ~finally:(fun () -> rss_mb := quit ()) @@ fun () ->
    let t_start = now_s () in
    (* round 0 warms up (first domain spawns, heap growth, page faults)
       and is checked but not measured; a traced run then needs one
       plain and one traced round at least *)
    let rec go i acc last =
      let traced = o.trace && i > 0 && i mod 2 = 0 in
      (* drop the last round's garbage, so peak RSS is one round's *)
      Gc.full_major ();
      let r, st = run_round ~traced in
      let r = { r with warmup = i = 0 } in
      let acc = r :: acc and last = if traced then st else last in
      let spent = now_s () -. t_start in
      let per_round = spent /. float_of_int (i + 1) in
      if ok r && (spent +. per_round <= o.seconds || i < if o.trace then 2 else 1)
      then
        go (i + 1) acc last
      else (List.rev acc, last)
    in
    go 0 [] [||]
  in
  let good = List.filter (fun r -> ok r && not r.warmup) rounds in
  let plain = List.filter (fun r -> not r.traced) good in
  let traced = List.filter (fun r -> r.traced) good in
  let metrics =
    if o.trace then
      per_layer (module T) wl ~n ~plain traced
        ~codec:(codec_probe (module T) last_stamps)
    else end_to_end plain ~rss_mb:!rss_mb
  in
  (cfg, rounds, metrics, end_to_end plain ~rss_mb:!rss_mb, List.nth_opt (List.rev traced) 0)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let round_kind r =
  if r.warmup then " warm-up" else if r.traced then " traced" else ""

let pp_round i r =
  match r.error with
  | Some msg ->
    Printf.printf "# round %d%s: FAILED %s\n" (i + 1) (round_kind r) msg
  | None ->
    Printf.printf
      "# round %d%s: stamps=%d stamps_per_s=%.0f p50_us=%.1f p99_us=%.1f \
       cpu_us_per_stamp=%.2f setup_s=%.4f verify_s=%.3f pairs=%d check=OK\n"
      (i + 1) (round_kind r) r.served
      (float_of_int r.served /. r.elapsed_s)
      (pct r.lat 50.) (pct r.lat 99.)
      ((r.client_cpu_s +. r.server_cpu_s) *. 1e6 /. float_of_int r.served)
      r.setup_s r.verify_s r.pairs

(* JSON has no nan/inf: a metric nobody could measure reads 0 *)
let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun x ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name
           (json_num x.m_value) x.m_unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

let main wl o =
  let (Timestamp.Registry.Impl (module T)) = wl.impl in
  Printf.printf "# perfbench workload=%s impl=%s transport=%s loop=%s%s \
                 clients=%d pipeline=%d seed=%d seconds=%g trace=%b\n%!"
    wl.name T.name
    (match wl.transport with
     | Wire { lease } -> Printf.sprintf "unix-socket lease=%d" lease
     | Inproc -> "inproc")
    (match wl.arrival with Closed -> "closed" | Open _ -> "open")
    (match wl.arrival with
     | Closed -> ""
     | Open { rate } -> Printf.sprintf " rate=%.0f/s" rate)
    wl.clients wl.pipeline o.seed o.seconds o.trace;
  let cfg, rounds, metrics, e2e, last_traced = run_workload (module T) wl o in
  List.iteri pp_round rounds;
  let attempted = List.fold_left (fun acc r -> acc + r.attempted) 0 rounds in
  let failed =
    List.fold_left
      (fun acc r -> if ok r then acc else acc + r.attempted)
      0 rounds
  in
  let correct = failed = 0 && attempted > 0 in
  let server_domains, service_domains =
    match List.filter ok rounds with
    | r :: _ -> (r.server_domains, r.service_domains)
    | [] -> (0, 0)
  in
  Printf.printf
    "# host: recommended_domain_count=%d domains: client=%d server=%d \
     service=%d; n=%d stamps/round=%d\n"
    (Domain.recommended_domain_count ())
    cfg.clients server_domains service_domains cfg.n
    (cfg.clients * cfg.requests_per_client);
  Option.iter
    (fun r ->
       Option.iter
         (fun tr ->
            let file = Printf.sprintf "%s/trace-%s.json" socket_dir wl.name in
            Obs.Trace.write_file tr file;
            Printf.printf "# chrome trace of the last traced round: %s (%d events)\n"
              file (Obs.Trace.num_events tr))
         r.trace)
    last_traced;
  let print_metric x =
    Printf.printf "%-30s %14.4f %-8s %s\n" x.m_name x.m_value x.m_unit x.m_note
  in
  if o.trace then begin
    Printf.printf "# end-to-end (plain rounds of this traced run):\n";
    List.iter print_metric e2e
  end;
  Printf.printf "# %s metrics:\n" (if o.trace then "per-layer" else "end-to-end");
  List.iter print_metric metrics;
  Printf.printf "%-30s %14.6f %-8s %d of %d stamps\n" "failed_frac"
    (float_of_int failed /. float_of_int (max 1 attempted))
    "fraction" failed attempted;
  print_endline (json_result ~correct ~attempted ~failed metrics);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and stamps = ref 0 and fault = ref `None in
  let names = List.map (fun w -> w.name) workloads in
  let spec =
    [ ("--workload", Arg.Symbol (names, (fun s -> workload := s)), " workload");
      ("--seed", Arg.Set_int seed, "N workload seed (Loadgen.cfg.seed)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 1 = per-layer metrics");
      ("--stamps", Arg.Set_int stamps, "N stamps per round (default per workload)");
      ( "--fault",
        Arg.Symbol
          ( [ "none"; "violation"; "server" ],
            fun s ->
              fault :=
                match s with
                | "violation" -> `Violation
                | "server" -> `Server
                | _ -> `None ),
        " inject a checker violation or a server start failure" ) ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline "perfbench: --workload is required";
    exit 2
  | Some wl ->
    main wl
      { seed = !seed; seconds = !seconds; trace = !trace = 1; stamps = !stamps;
        fault = !fault }
