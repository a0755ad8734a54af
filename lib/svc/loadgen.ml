type mode = Direct | Service of { shards : int; batch_max : int }

(* Closed loop: each client submits its next request as soon as the
   previous burst completes — latency excludes any queueing the client
   itself caused by backing off.  Open loop: requests have scheduled
   arrival times at an aggregate [rate] (requests/second across all
   clients) and latency is measured from the *intended* start, so time a
   request spends waiting behind a backlog counts against the service —
   the coordinated-omission-correct number. *)
type arrival = Closed | Open of { rate : float }

type telemetry = {
  tel_out : string;
  tel_append : bool;
  tel_interval_us : int;
}

type cfg = {
  mode : mode;
  arrival : arrival;
  clients : int;
  requests_per_client : int;
  pipeline : int;
  n : int;
  seed : int;
  telemetry : telemetry option;
}

let default =
  { mode = Direct;
    arrival = Closed;
    clients = 4;
    requests_per_client = 100;
    pipeline = 1;
    n = 8;
    seed = 1;
    telemetry = None }

type shard_report = {
  sr_shard : int;
  sr_served : int;
  sr_batches : int;
  sr_max_batch : int;
  sr_p50_us : float;
  sr_p99_us : float;
}

type report = {
  lg_impl : string;
  lg_mode : string;
  lg_total : int;
  lg_elapsed_s : float;
  lg_throughput : float;
  lg_hb_pairs : int;
  lg_violation : string option;
  lg_check_s : float;
  lg_p50_us : float;
  lg_p90_us : float;
  lg_p99_us : float;
  lg_p999_us : float;
  lg_max_us : float;
  lg_shards : shard_report list;
  lg_timestamps : string list Lazy.t;
  lg_samples : int;
  lg_stalls : int;
}

(* Latencies are recorded live into HDR histograms, in integer
   nanoseconds.  Every client records each call once, into a histogram
   of its own for the call's serving shard: single-writer, plain
   increments, no allocation.  A shard's percentiles come from the
   lossless merge of every client's histograms of that shard, and the
   run's from the merge of the shards' snapshots, so each histogram is
   summed once. *)
let us_of_ns ns = ns /. 1e3

(* [rcs.(c).(i)] is client [c]'s histogram of shard [i] (0 unsharded). *)
let merged_shard rcs i = Obs.Hdr.merged (Array.map (fun rc -> rc.(i)) rcs)

(* [snaps] holds at least one shard's snapshot. *)
let merged_run snaps =
  Array.fold_left Obs.Hdr.merge snaps.(0)
    (Array.sub snaps 1 (Array.length snaps - 1))

(* A call's latency, into client [rc]'s histogram of the serving shard:
   its response's [st_resp_us] less its start, an [Obs.Clock.now_ns]
   reading. *)
let record_lat rc (s : _ Client.stamp) ~start_ns =
  let shard =
    if s.st_shard < 0 || s.st_shard >= Array.length rc then 0 else s.st_shard
  in
  Obs.Hdr.record rc.(shard) (int_of_float (s.st_resp_us *. 1e3) - start_ns)

(* Open-loop schedule: client [i]'s [call]-th request is due at
   [t0 + (call + i/clients) * clients/rate] — clients interleave evenly
   on the aggregate arrival process. *)
let arrival_interval_ns cfg rate =
  1e9 *. float_of_int cfg.clients /. rate

(* A wait under a microsecond is not worth a sleep. *)
let wait_until sched =
  let wait = sched - Obs.Clock.now_ns () in
  if wait >= 1_000 then Obs.Clock.sleep_s (float_of_int wait *. 1e-9)

let mode_string cfg =
  let base =
    match cfg.mode with
    | Direct -> Printf.sprintf "direct clients=%d" cfg.clients
    | Service { shards; batch_max } ->
      Printf.sprintf "service clients=%d shards=%d batch_max=%d pipeline=%d"
        cfg.clients shards batch_max cfg.pipeline
  in
  match cfg.arrival with
  | Closed -> base
  | Open { rate } -> Printf.sprintf "%s open rate=%.0f/s" base rate

let arrival_string cfg =
  match cfg.arrival with
  | Closed -> ""
  | Open { rate } -> Printf.sprintf " open rate=%.0f/s" rate

let stress (Timestamp.Registry.Impl (module T)) ~n ~calls =
  let calls = match T.kind with `One_shot -> 1 | `Long_lived -> calls in
  { default with clients = n; requests_per_client = calls; pipeline = calls; n }

let validate cfg =
  if cfg.clients <= 0 then invalid_arg "Loadgen.run: clients must be positive";
  if cfg.requests_per_client <= 0 then
    invalid_arg "Loadgen.run: requests_per_client must be positive";
  if cfg.pipeline <= 0 then invalid_arg "Loadgen.run: pipeline must be positive";
  (match cfg.arrival with
   | Open { rate } when rate <= 0. ->
     invalid_arg "Loadgen.run: open-loop rate must be positive"
   | _ -> ());
  match cfg.telemetry with
  | Some { tel_interval_us; _ } when tel_interval_us <= 0 ->
    invalid_arg "Loadgen.run: telemetry interval must be positive"
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The generic engine: drive any Client.S transport with the closed- or
   open-loop workload and produce the standard report.  The transports
   differ only in how a client handle is made and torn down, which the
   caller packs into a [setup].                                         *)

module Drive (C : Client.S) = struct
  type setup = {
    connect : int -> C.t;
        (* client [i]'s handle; called on the client's domain *)
    num_shards : int;  (* serving shards (for per-shard histograms) *)
    impl : string;
    mode_label : string;
    backend_label : string;  (* unused; kept for perfbench *)
    compare_ts : C.result -> C.result -> bool;
    pp_ts : Format.formatter -> C.result -> unit;
    attach : (Obs.Timeseries.t -> unit) option;
        (* extra telemetry sources (e.g. the service's own) *)
    teardown : unit -> unit;  (* once: after the clients, before stats *)
    service_stats : (unit -> (int * int * int) array) option;
        (* per-shard (served, batches, max_batch), read after teardown *)
  }

  (* The run's calls, in flat columns sized before any client starts:
     client [i] writes its [k]-th call at [i * requests_per_client + k],
     and the checker reads the columns in place.  Nothing a client keeps
     is a fresh block, so its minor collections promote nothing (the
     stamps themselves aside, when they are blocks).  The stamp column
     needs a stamp to be made, so the first client to complete a call
     makes it, for every client. *)
  type log = {
    pids : int array;
    calls : int array;
    starts : int array;
    ends : int array;
    stamps : C.result array option Atomic.t;
  }

  let make_log total =
    let column () = Array.make total 0 in
    { pids = column (); calls = column (); starts = column ();
      ends = column (); stamps = Atomic.make None }

  let rec stamp_column log ts =
    match Atomic.get log.stamps with
    | Some col -> col
    | None ->
      let col = Array.make (Array.length log.ends) ts in
      ignore (Atomic.compare_and_set log.stamps None (Some col) : bool);
      stamp_column log ts

  (* Writes call [k] and records its latency. *)
  let put log rc k (s : C.result Client.stamp) ~start_ns =
    record_lat rc s ~start_ns;
    log.pids.(k) <- s.st_pid;
    log.calls.(k) <- s.st_call;
    log.starts.(k) <- s.st_start_tick;
    log.ends.(k) <- s.st_end_tick;
    (stamp_column log s.st_ts).(k) <- s.st_ts

  (* Closed-loop client: issue a burst of [pipeline], await it, repeat.
     Latency = burst issue time to the transport's completion stamp —
     queueing + service time, excluding the client's own post-completion
     wakeup. *)
  let closed_loop cfg log rc client ~first =
    let rec put_burst k start_ns = function
      | [] -> k
      | s :: rest ->
        put log rc k s ~start_ns;
        put_burst (k + 1) start_ns rest
    in
    let last = first + cfg.requests_per_client in
    let rec go k =
      if k < last then begin
        let start_ns = Obs.Clock.now_ns () in
        let burst = C.stamp_batch client (min cfg.pipeline (last - k)) in
        go (put_burst k start_ns burst)
      end
    in
    go first

  (* Open-loop client: begin each request at its scheduled arrival,
     keeping at most [pipeline] in flight (completing the oldest when
     the window is full).  Latency runs from the scheduled arrival, so a
     request delayed behind a full window or a deep queue still charges
     the service for the wait. *)
  let open_loop cfg log rc ~rate ~t0 client i ~first =
    let iv = arrival_interval_ns cfg rate in
    let phase = iv *. float_of_int i /. float_of_int cfg.clients in
    let window = Queue.create () in
    let next = ref first in
    let complete_oldest () =
      let thunk, sched = Queue.pop window in
      put log rc !next (thunk ()) ~start_ns:sched;
      incr next
    in
    for call = 0 to cfg.requests_per_client - 1 do
      let sched = t0 + int_of_float (phase +. (float_of_int call *. iv)) in
      wait_until sched;
      if Queue.length window >= cfg.pipeline then complete_oldest ();
      Queue.push (C.stamp_async client, sched) window
    done;
    while not (Queue.is_empty window) do
      complete_oldest ()
    done

  let start_telemetry setup cfg rcs ~num_shards =
    match cfg.telemetry with
    | None -> None
    | Some tel ->
      let ts = Obs.Timeseries.create ~interval_us:tel.tel_interval_us () in
      (match setup.attach with Some f -> f ts | None -> ());
      (* the load generator's own live series, from the merged HDRs *)
      let pct snap p () = us_of_ns (Obs.Hdr.percentile (snap ()) p) in
      for i = 0 to num_shards - 1 do
        let name = Printf.sprintf "s%d.lat_p%s_us" i in
        let shard () = merged_shard rcs i in
        Obs.Timeseries.add_source ts ~name:(name "50") (pct shard 50.);
        Obs.Timeseries.add_source ts ~name:(name "99") (pct shard 99.)
      done;
      let all () = merged_run (Array.init num_shards (merged_shard rcs)) in
      Obs.Timeseries.add_source ts ~name:"lat.p50_us" (pct all 50.);
      Obs.Timeseries.add_source ts ~name:"lat.p99_us" (pct all 99.);
      Obs.Timeseries.add_source ts ~name:"lat.p999_us" (pct all 99.9);
      Obs.Timeseries.add_source ts ~name:"lg.completed" (fun () ->
          float_of_int (Obs.Hdr.count (all ())));
      Obs.Timeseries.start ~append:tel.tel_append ~out:tel.tel_out ts;
      Some ts

  (* Polls of the ready barrier (about 3 ms on a 2-vCPU host) before a
     client blocks on it.  With more clients than cores, clients polling
     without bound keep the last one off the cores for seconds.  Blocking
     at once makes each waiter pay a futex wake, and the wakes' stagger
     cuts how much the clients' first calls overlap. *)
  let ready_polls = 100_000

  (* Client 0 runs on the calling domain, and every other client on a
     domain of its own.  Until the last spawn the spawned clients sleep
     on a start gate, so none runs, or ends and frees its domain slot,
     before then; then each connects and they meet at a ready barrier,
     so their first calls start together: the last arrival broadcasts on
     the gate, the others poll, then block.  A client whose connect
     raises still arrives, so the others do not wait for it.  Elapsed
     time and the open loop's schedule start at the gate's opening, and
     the first exception a client raised is re-raised once every client
     has ended. *)
  let collect setup cfg log rcs =
    let gate = Mutex.create () and opened = Condition.create () in
    let state = ref `Closed in
    let open_gate s =
      Mutex.protect gate (fun () ->
          state := s;
          Condition.broadcast opened)
    in
    (* [released] is set after the broadcast, so the clients still
       polling start with the last arrival, not while it broadcasts *)
    let ready = Atomic.make 0 and released = Atomic.make false in
    let all_ready = Condition.create () in
    let await_ready () =
      if Atomic.fetch_and_add ready 1 = cfg.clients - 1 then
        Mutex.protect gate (fun () ->
            Condition.broadcast all_ready;
            Atomic.set released true)
      else begin
        let polls = ref ready_polls in
        while !polls > 0 && not (Atomic.get released) do
          Domain.cpu_relax ();
          decr polls
        done;
        if not (Atomic.get released) then
          Mutex.protect gate (fun () ->
              while not (Atomic.get released) do
                Condition.wait all_ready gate
              done)
      end
    in
    let body i () =
      let s =
        Mutex.protect gate (fun () ->
            while !state = `Closed do
              Condition.wait opened gate
            done;
            !state)
      in
      match s with
      | `Closed | `Abort -> ()
      | `Go t0 ->
        let client =
          match setup.connect i with
          | client -> await_ready (); client
          | exception e -> await_ready (); raise e
        in
        let first = i * cfg.requests_per_client and rc = rcs.(i) in
        (match cfg.arrival with
         | Closed -> closed_loop cfg log rc client ~first
         | Open { rate } -> open_loop cfg log rc ~rate ~t0 client i ~first);
        C.close client
    in
    Obs.Hooks.with_span "loadgen.run" @@ fun () ->
    let domains =
      Obs.Hooks.with_span "loadgen.spawn" @@ fun () ->
      let spawned = ref [] in
      (try
         for i = 1 to cfg.clients - 1 do
           spawned := Domain.spawn (body i) :: !spawned
         done
       with e ->
         open_gate `Abort;
         List.iter Domain.join !spawned;
         raise e);
      List.rev !spawned
    in
    let t0 = Obs.Clock.now_ns () in
    open_gate (`Go t0);
    let outcome run =
      match run () with
      | () -> None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    let first_error = outcome (body 0) in
    let errors =
      List.map (fun d -> outcome (fun () -> Domain.join d)) domains
    in
    match List.find_map Fun.id (first_error :: errors) with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Obs.Clock.elapsed_s t0

  (* The checker path: the declaration of the registered implementation
     named [setup.impl]; any other name (a fuzz mutant, a custom label)
     gets the exhaustive scan. *)
  let order_of setup =
    Option.fold ~none:`General ~some:Timestamp.Registry.order
      (Timestamp.Registry.find setup.impl)

  (* Build the standard report from the columns and the histogram
     snapshots; runs the happens-before check over every call. *)
  let report_of setup log ~elapsed ~shard_snaps ~stats ~tel_samples
      ~tel_stalls =
    let total = Array.length log.ends in
    let stamps = Option.value (Atomic.get log.stamps) ~default:[||] in
    let op i = { Shm.History.pid = log.pids.(i); call = log.calls.(i) } in
    let t_check = Obs.Clock.now_ns () in
    let hb_pairs, violation =
      match
        Obs.Hooks.with_span "loadgen.check" @@ fun () ->
        Timestamp.Checker.check_calls ~order:(order_of setup)
          ~compare_ts:setup.compare_ts ~pp:setup.pp_ts ~op ~starts:log.starts
          ~ends:log.ends stamps
      with
      | Ok pairs -> (pairs, None)
      | Error v ->
        (0, Some (Format.asprintf "%a" Timestamp.Checker.pp_violation v))
    in
    let check_s = Obs.Clock.elapsed_s t_check in
    let gsnap = merged_run shard_snaps in
    let gpct p = us_of_ns (Obs.Hdr.percentile gsnap p) in
    let num_shards = Array.length shard_snaps in
    let shard_report i =
      let ssnap = shard_snaps.(i) in
      let served, batches, max_batch =
        match stats with
        | None -> (Obs.Hdr.count ssnap, 0, 0)
        | Some st ->
          let s, b, m = st.(i) in
          (s, b, m)
      in
      { sr_shard = i; sr_served = served; sr_batches = batches;
        sr_max_batch = max_batch;
        sr_p50_us = us_of_ns (Obs.Hdr.percentile ssnap 50.);
        sr_p99_us = us_of_ns (Obs.Hdr.percentile ssnap 99.) }
    in
    { lg_impl = setup.impl;
      lg_mode = setup.mode_label;
      lg_total = total;
      lg_elapsed_s = elapsed;
      lg_throughput =
        (if elapsed > 0. then float_of_int total /. elapsed else 0.);
      lg_hb_pairs = hb_pairs;
      lg_violation = violation;
      lg_check_s = check_s;
      lg_p50_us = gpct 50.;
      lg_p90_us = gpct 90.;
      lg_p99_us = gpct 99.;
      lg_p999_us = gpct 99.9;
      lg_max_us = us_of_ns (float_of_int (Obs.Hdr.max_value gsnap));
      lg_shards = List.init num_shards shard_report;
      lg_timestamps =
        lazy
          (List.init total Fun.id
           |> List.sort (fun i j -> Int.compare log.ends.(i) log.ends.(j))
           |> List.map (fun i -> Format.asprintf "%a" setup.pp_ts stamps.(i)));
      lg_samples = tel_samples;
      lg_stalls = tel_stalls }

  (* [setup.teardown] runs once on every path: after the clients end
     and before the check, or before an exception leaves [run]. *)
  let run setup cfg =
    let num_shards = max 1 setup.num_shards in
    let drive () =
      validate cfg;
      let rcs =
        Array.init cfg.clients (fun _ ->
            Array.init num_shards (fun _ -> Obs.Hdr.create ()))
      in
      let log = make_log (cfg.clients * cfg.requests_per_client) in
      let ts = start_telemetry setup cfg rcs ~num_shards in
      match collect setup cfg log rcs with
      | elapsed -> (rcs, log, ts, elapsed)
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Option.iter Obs.Timeseries.stop ts;
        Printexc.raise_with_backtrace e bt
    in
    let rcs, log, ts, elapsed =
      match drive () with
      | driven ->
        setup.teardown ();
        driven
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        setup.teardown ();
        Printexc.raise_with_backtrace e bt
    in
    let stats = Option.map (fun f -> f ()) setup.service_stats in
    let tel_samples, tel_stalls =
      match ts with
      | None -> (0, 0)
      | Some ts ->
        Obs.Timeseries.stop ts;
        (Obs.Timeseries.samples ts, Obs.Timeseries.stalls ts)
    in
    report_of setup log ~elapsed
      ~shard_snaps:(Array.init num_shards (merged_shard rcs))
      ~stats ~tel_samples ~tel_stalls
end

(* ------------------------------------------------------------------ *)
(* Built-in transports: Direct and Service, dispatched from [cfg.mode]. *)

module Run (T : Timestamp.Intf.S) = struct
  module S = Service.Make (T)
  module Cd = Client.Direct (T)
  module Ci = Client.Inproc (T)
  module Dd = Drive (Cd)
  module Di = Drive (Ci)

  (* Raise [n] when the workload needs more process ids than configured:
     every client of a long-lived object is one process, every request to a
     one-shot object is one. *)
  let effective_n cfg =
    match T.kind with
    | `One_shot -> max cfg.n (cfg.clients * cfg.requests_per_client)
    | `Long_lived -> max cfg.n cfg.clients

  let run cfg =
    validate cfg;
    match cfg.mode with
    | Direct ->
      let ctx = Cd.create_ctx ~n:(effective_n cfg) () in
      (* connect here, in order, so a long-lived client [i]
         deterministically owns process id [i] *)
      let clients = Array.init cfg.clients (fun _ -> Cd.connect ctx) in
      Dd.run
        { Dd.connect = (fun i -> clients.(i));
          num_shards = 1;
          impl = T.name;
          mode_label = mode_string cfg;
          backend_label = "boxed";
          compare_ts = T.compare_ts;
          pp_ts = T.pp_ts;
          attach = None;
          teardown = (fun () -> ());
          service_stats = None }
        cfg
    | Service { shards; batch_max } ->
      let svc =
        S.start ~batch_max ~shards ~telemetry:(cfg.telemetry <> None)
          ~n:(effective_n cfg) ()
      in
      (* open the sessions here, not in the client domains, so client [i]
         deterministically owns process id [i] *)
      let clients =
        try Array.init cfg.clients (fun _ -> Ci.connect svc)
        with e ->
          S.stop svc;
          raise e
      in
      Di.run
        { Di.connect = (fun i -> clients.(i));
          num_shards = shards;
          impl = T.name;
          mode_label = mode_string cfg;
          backend_label = "boxed";
          compare_ts = T.compare_ts;
          pp_ts = T.pp_ts;
          attach = Some (fun ts -> S.attach_telemetry svc ts);
          teardown = (fun () -> S.stop svc);
          service_stats =
            Some
              (fun () ->
                 Array.map
                   (fun (s : S.shard_stats) -> (s.served, s.batches, s.max_batch))
                   (S.stats svc)) }
        cfg
end

let run (Timestamp.Registry.Impl (module T)) cfg =
  let module R = Run (T) in
  R.run cfg
