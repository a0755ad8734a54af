let now_us () = Obs.Trace.Clock.now_s () *. 1e6

(* Sleeps [us] microseconds, truncated; a signal cuts the sleep short. *)
let sleep_us us =
  if us > 0.5 then
    try Unix.sleepf (Float.trunc us *. 1e-6)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()

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
   nanoseconds: a client domain records into the histogram shard its
   domain id picks (one padded fetch-and-add per record, no allocation)
   and the report percentiles come from the lossless merge of the
   shards.  The histograms have one shard per client domain (rounded up
   to a power of two): [collect] spawns the client domains back to back,
   and neither the service nor the wire server spawns a domain while
   they run, so each client has its own shard. *)
let ns_of_us us = int_of_float (us *. 1e3)

let us_of_ns ns = ns /. 1e3

type recorder = {
  g_hdr : Obs.Hdr.t;  (* all requests *)
  shard_hdrs : Obs.Hdr.t array;  (* by serving shard (index 0 unsharded) *)
}

let make_recorder ~clients num_shards =
  let hdr () = Obs.Hdr.create ~shards:clients () in
  { g_hdr = hdr (); shard_hdrs = Array.init num_shards (fun _ -> hdr ()) }

let record_lat rc ~shard lat_us =
  let shard = if shard < 0 || shard >= Array.length rc.shard_hdrs then 0 else shard in
  let ns = ns_of_us lat_us in
  Obs.Hdr.record rc.g_hdr ns;
  Obs.Hdr.record rc.shard_hdrs.(shard) ns

(* Open-loop schedule: client [i]'s [call]-th request is due at
   [t0 + (call + i/clients) * clients/rate] — clients interleave evenly
   on the aggregate arrival process. *)
let arrival_interval_us cfg rate =
  1e6 *. float_of_int cfg.clients /. rate

let wait_until sched =
  let now = now_us () in
  if now < sched then sleep_us (sched -. now)

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
  match cfg.arrival with
  | Open { rate } when rate <= 0. ->
    invalid_arg "Loadgen.run: open-loop rate must be positive"
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The generic engine: drive any Client.S transport with the closed- or
   open-loop workload and produce the standard report.  The transports
   differ only in how a client handle is made and torn down, which the
   caller packs into a [setup].                                         *)

module Drive (C : Client.S) = struct
  type sample = { sm_stamp : C.result Client.stamp; sm_lat_us : float }

  type setup = {
    connect : int -> C.t;
        (* client [i]'s handle; called inside the client's domain *)
    num_shards : int;  (* serving shards (for per-shard histograms) *)
    impl : string;
    mode_label : string;
    backend_label : string;  (* unused; kept for perfbench *)
    compare_ts : C.result -> C.result -> bool;
    pp_ts : Format.formatter -> C.result -> unit;
    attach : (Obs.Timeseries.t -> unit) option;
        (* extra telemetry sources (e.g. the service's own) *)
    teardown : unit -> unit;  (* after clients join, before stats *)
    service_stats : (unit -> (int * int * int) array) option;
        (* per-shard (served, batches, max_batch), read after teardown *)
  }

  (* Closed-loop client: issue a burst of [pipeline], await it, repeat.
     Latency = burst issue time to the transport's completion stamp —
     queueing + service time, excluding the client's own post-completion
     wakeup. *)
  let closed_loop cfg rc client =
    let rec go remaining acc =
      if remaining = 0 then acc
      else begin
        let burst = min cfg.pipeline remaining in
        let t_sub = now_us () in
        let stamps = C.stamp_batch client burst in
        let acc =
          List.fold_left
            (fun acc (s : C.result Client.stamp) ->
               let lat = s.Client.st_resp_us -. t_sub in
               record_lat rc ~shard:s.Client.st_shard lat;
               { sm_stamp = s; sm_lat_us = lat } :: acc)
            acc stamps
        in
        go (remaining - burst) acc
      end
    in
    go cfg.requests_per_client []

  (* Open-loop client: begin each request at its scheduled arrival,
     keeping at most [pipeline] in flight (completing the oldest when
     the window is full).  Latency runs from the scheduled arrival, so a
     request delayed behind a full window or a deep queue still charges
     the service for the wait. *)
  let open_loop cfg rc ~rate ~t0 client i =
    let iv = arrival_interval_us cfg rate in
    let phase = iv *. float_of_int i /. float_of_int cfg.clients in
    let window = Queue.create () in
    let complete_oldest acc =
      let thunk, sched = Queue.pop window in
      let (s : C.result Client.stamp) = thunk () in
      let lat = s.Client.st_resp_us -. sched in
      record_lat rc ~shard:s.Client.st_shard lat;
      { sm_stamp = s; sm_lat_us = lat } :: acc
    in
    let rec go call acc =
      if call >= cfg.requests_per_client then begin
        let acc = ref acc in
        while not (Queue.is_empty window) do
          acc := complete_oldest !acc
        done;
        !acc
      end
      else begin
        let sched = t0 +. phase +. (float_of_int call *. iv) in
        wait_until sched;
        let acc =
          if Queue.length window >= cfg.pipeline then complete_oldest acc
          else acc
        in
        Queue.push (C.stamp_async client, sched) window;
        go (call + 1) acc
      end
    in
    go 0 []

  let start_telemetry setup cfg rc =
    match cfg.telemetry with
    | None -> None
    | Some tel ->
      let ts = Obs.Timeseries.create ~interval_us:tel.tel_interval_us () in
      (match setup.attach with Some f -> f ts | None -> ());
      (* the load generator's own live series, from the merged HDR *)
      let pct h p () = us_of_ns (Obs.Hdr.percentile (Obs.Hdr.snapshot h) p) in
      Array.iteri
        (fun i h ->
           let name = Printf.sprintf "s%d.lat_p%s_us" i in
           Obs.Timeseries.add_source ts ~name:(name "50") (pct h 50.);
           Obs.Timeseries.add_source ts ~name:(name "99") (pct h 99.))
        rc.shard_hdrs;
      Obs.Timeseries.add_source ts ~name:"lat.p50_us" (pct rc.g_hdr 50.);
      Obs.Timeseries.add_source ts ~name:"lat.p99_us" (pct rc.g_hdr 99.);
      Obs.Timeseries.add_source ts ~name:"lat.p999_us" (pct rc.g_hdr 99.9);
      Obs.Timeseries.add_source ts ~name:"lg.completed" (fun () ->
          float_of_int (Obs.Hdr.count (Obs.Hdr.snapshot rc.g_hdr)));
      Obs.Timeseries.start ~append:tel.tel_append ~out:tel.tel_out ts;
      Some ts

  (* Polls of the ready barrier (about 3 ms on a 2-vCPU host) before a
     client blocks on it.  With more clients than cores, clients polling
     without bound keep the last one off the cores for seconds.  Blocking
     at once makes each waiter pay a futex wake, and the wakes' stagger
     cuts how much the clients' first calls overlap. *)
  let ready_polls = 100_000

  (* Spawn one domain per client, drive the configured loop, join.
     Shared by the single-process [run] and each [run_procs] worker.
     Until the last spawn the clients sleep on a start gate, so none
     runs, or ends and frees its domain slot, before then; then each
     connects and they meet at a ready barrier, so their first calls
     start together: the last arrival broadcasts on the gate, the others
     poll, then block.  Elapsed time and the open loop's schedule start
     at the gate's opening. *)
  let collect setup cfg rc =
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
      | `Closed | `Abort -> []
      | `Go t0 ->
        let client = setup.connect i in
        await_ready ();
        let samples =
          match cfg.arrival with
          | Closed -> closed_loop cfg rc client
          | Open { rate } -> open_loop cfg rc ~rate ~t0 client i
        in
        C.close client;
        samples
    in
    Obs.Hooks.with_span "loadgen.run" @@ fun () ->
    let domains =
      Obs.Hooks.with_span "loadgen.spawn" @@ fun () ->
      let spawned = ref [] in
      (try
         for i = 0 to cfg.clients - 1 do
           spawned := Domain.spawn (body i) :: !spawned
         done
       with e ->
         open_gate `Abort;
         List.iter (fun d -> ignore (Domain.join d)) !spawned;
         raise e);
      List.rev !spawned
    in
    let t0 = now_us () in
    open_gate (`Go t0);
    let samples = List.concat_map Domain.join domains in
    (samples, (now_us () -. t0) *. 1e-6)

  (* The checker path: the declaration of the registered implementation
     named [setup.impl]; any other name (a fuzz mutant, a custom label)
     gets the exhaustive scan. *)
  let order_of setup =
    Option.fold ~none:`General ~some:Timestamp.Registry.order
      (Timestamp.Registry.find setup.impl)

  (* Build the standard report from collected samples and (possibly
     merged-across-processes) histogram snapshots; runs the global
     happens-before check over every sample it is given. *)
  let report_of setup ~samples ~elapsed ~gsnap ~shard_snaps ~stats
      ~tel_samples ~tel_stalls =
    let calls = Array.of_list samples in
    let total = Array.length calls in
    let t_check = now_us () in
    let hb_pairs, violation =
      match
        Obs.Hooks.with_span "loadgen.check" @@ fun () ->
        Timestamp.Checker.check_calls ~order:(order_of setup)
          ~compare_ts:setup.compare_ts ~pp:setup.pp_ts
          ~start:(fun s -> s.sm_stamp.Client.st_start_tick)
          ~stop:(fun s -> s.sm_stamp.Client.st_end_tick)
          ~stamp:(fun s -> s.sm_stamp.Client.st_ts)
          ~op:(fun { sm_stamp = s; _ } ->
              { Shm.History.pid = s.Client.st_pid; call = s.Client.st_call })
          calls
      with
      | Ok pairs -> (pairs, None)
      | Error v ->
        (0, Some (Format.asprintf "%a" Timestamp.Checker.pp_violation v))
    in
    let check_s = (now_us () -. t_check) *. 1e-6 in
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
          (List.sort
             (fun a b -> Int.compare a.sm_stamp.Client.st_end_tick
                 b.sm_stamp.Client.st_end_tick)
             samples
           |> List.map (fun s ->
               Format.asprintf "%a" setup.pp_ts s.sm_stamp.Client.st_ts));
      lg_samples = tel_samples;
      lg_stalls = tel_stalls }

  let run setup cfg =
    validate cfg;
    let rc = make_recorder ~clients:cfg.clients (max 1 setup.num_shards) in
    let ts = start_telemetry setup cfg rc in
    let samples, elapsed = collect setup cfg rc in
    setup.teardown ();
    let stats = Option.map (fun f -> f ()) setup.service_stats in
    let tel_samples, tel_stalls =
      match ts with
      | None -> (0, 0)
      | Some ts ->
        Obs.Timeseries.stop ts;
        (Obs.Timeseries.samples ts, Obs.Timeseries.stalls ts)
    in
    report_of setup ~samples ~elapsed
      ~gsnap:(Obs.Hdr.snapshot rc.g_hdr)
      ~shard_snaps:(Array.map Obs.Hdr.snapshot rc.shard_hdrs)
      ~stats ~tel_samples ~tel_stalls

  (* ------------------------- multi-process ------------------------- *)

  (* What a forked worker ships back to the parent over its pipe: raw
     samples (for the parent's *global* happens-before check) and its
     HDR snapshots (plain int-array records, merged losslessly).  The
     channel is a pipe between two forks of this very binary, so Marshal
     is appropriate here — this is not network input. *)
  type child_payload = {
    cp_samples : sample list;
    cp_elapsed_s : float;
    cp_g : Obs.Hdr.snapshot;
    cp_shards : Obs.Hdr.snapshot array;
  }

  (* Multi-process drive: fork [procs] workers *before* any domain is
     spawned (fork after Domain.spawn is unsupported in OCaml 5), each
     worker connects its own clients via [child p] *inside the child
     process* — handles must never be created pre-fork and shared — and
     drives [cfg.clients] connections.  The parent merges histograms,
     concatenates samples, runs the global checker, and reports with
     [clients * procs] effective clients.  Open-loop rate is split
     evenly. *)
  let run_procs ~procs ~child setup cfg =
    validate cfg;
    if procs <= 1 then run { setup with connect = (child 0).connect } cfg
    else begin
      if cfg.telemetry <> None then
        invalid_arg "Loadgen.run_procs: telemetry requires --procs 1";
      let spawn p =
        let r, w = Unix.pipe ~cloexec:false () in
        match Unix.fork () with
        | 0 ->
          (try Unix.close r with Unix.Unix_error _ -> ());
          let status = ref 0 in
          (try
             let setup = child p in
             let cfg_c =
               { cfg with
                 arrival =
                   (match cfg.arrival with
                    | Closed -> Closed
                    | Open { rate } ->
                      Open { rate = rate /. float_of_int procs }) }
             in
             let rc =
               make_recorder ~clients:cfg_c.clients (max 1 setup.num_shards)
             in
             let samples, elapsed = collect setup cfg_c rc in
             setup.teardown ();
             let payload =
               { cp_samples = samples;
                 cp_elapsed_s = elapsed;
                 cp_g = Obs.Hdr.snapshot rc.g_hdr;
                 cp_shards = Array.map Obs.Hdr.snapshot rc.shard_hdrs }
             in
             let oc = Unix.out_channel_of_descr w in
             Marshal.to_channel oc payload [];
             Stdlib.flush oc
           with e ->
             Printf.eprintf "loadgen worker %d: %s\n%!" p
               (Printexc.to_string e);
             status := 1);
          (try Unix.close w with Unix.Unix_error _ -> ());
          (* _exit: skip at_exit/flush inherited from the parent *)
          Unix._exit !status
        | pid ->
          Unix.close w;
          (pid, r)
      in
      let children = List.init procs spawn in
      let payloads =
        List.map
          (fun (pid, r) ->
             let ic = Unix.in_channel_of_descr r in
             let payload =
               match (Marshal.from_channel ic : child_payload) with
               | p -> Some p
               | exception _ -> None
             in
             (try close_in ic with Sys_error _ -> ());
             let _, st = Unix.waitpid [] pid in
             match (st, payload) with
             | Unix.WEXITED 0, Some p -> p
             | _ ->
               raise
                 (Client.Error
                    (Printf.sprintf "loadgen: worker process %d failed" pid)))
          children
      in
      setup.teardown ();
      let stats = Option.map (fun f -> f ()) setup.service_stats in
      let samples = List.concat_map (fun p -> p.cp_samples) payloads in
      let elapsed =
        List.fold_left (fun m p -> Float.max m p.cp_elapsed_s) 0. payloads
      in
      let empty () = Obs.Hdr.snapshot (Obs.Hdr.create ()) in
      let gsnap =
        List.fold_left (fun acc p -> Obs.Hdr.merge acc p.cp_g) (empty ())
          payloads
      in
      let nshards =
        List.fold_left (fun m p -> max m (Array.length p.cp_shards)) 1
          payloads
      in
      let shard_snaps =
        Array.init nshards (fun i ->
            List.fold_left
              (fun acc p ->
                 if i < Array.length p.cp_shards then
                   Obs.Hdr.merge acc p.cp_shards.(i)
                 else acc)
              (empty ()) payloads)
      in
      report_of setup ~samples ~elapsed ~gsnap ~shard_snaps ~stats
        ~tel_samples:0 ~tel_stalls:0
    end
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
      let clients = Array.init cfg.clients (fun _ -> Ci.connect svc) in
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
