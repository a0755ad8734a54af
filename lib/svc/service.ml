let now_us () = Obs.Trace.Clock.now_s () *. 1e6

let sleep_s s =
  try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

module Make (T : Timestamp.Intf.S) = struct
  type resp = {
    ts : T.result;
    pid : int;
    call : int;
    shard : int;
    start_tick : int;
    end_tick : int;
    resp_us : float;  (** wall clock at completion, stamped once per chunk *)
  }

  (* Pooled, intrusively linked request record.  A ticket is reused across
     requests (sessions keep a free list), so every field except the done
     flag is a plain mutable slot rewritten on submit; [r_next] threads the
     record through its shard's inbox without a per-push cons cell.  The
     completion protocol is: worker writes the result fields, then flips
     [r_done] 0 -> 1 (SC release) and wakes [r_park], the submitting
     session's park; the client waits on [r_done] (SC acquire) and only
     then reads the plain fields. *)
  type request = {
    mutable r_pid : int;
    mutable r_call : int;
    mutable r_shard : int;
    mutable r_start_tick : int;
    mutable r_end_tick : int;
    mutable r_ts : T.result;
    mutable r_resp_us : float;
    r_done : int Atomic.t;
    r_park : Park.t;  (* the owning session's; records never change session *)
    mutable r_next : request;
  }

  (* Sentinel terminating every intrusive chain (compared physically).
     Its [r_ts] dummy is an immediate and is never read. *)
  let rec nil =
    { r_pid = -1;
      r_call = -1;
      r_shard = -1;
      r_start_tick = 0;
      r_end_tick = 0;
      r_ts = (Obj.magic 0 : T.result);
      r_resp_us = 0.0;
      r_done = Atomic.make 1;
      r_park = Park.create ();
      r_next = nil }

  type shard = {
    inbox : request Atomic.t;  (* Treiber stack of requests; [nil] = empty *)
    park : Park.t;  (* the worker parks here on an empty inbox *)
    depth : int Atomic.t;  (* submitted-not-batched; maintained only when
                              instrumented ([t.instr]) *)
    (* worker-owned counters; the sampler domain reads them live (plain
       int reads cannot tear) and Domain.join publishes the final values *)
    mutable served : int;
    mutable batches : int;
    mutable max_batch : int;
    mutable chunks : int;  (* end-tick reservation chunks *)
    batch_hdr : Obs.Hdr.t;  (* batch-size distribution; single recorder
                               (the shard's worker), so one shard *)
  }

  type t = {
    regs : T.value Atomic.t array;
    n : int;
    shards : shard array;
    batch_max : int;
    armed : bool;  (* Obs.Hooks.armed, sampled once at start *)
    instr : bool;  (* armed || telemetry: maintain live gauges *)
    pooled : int Atomic.t;  (* records parked in session free lists,
                               service-wide; maintained only when instr *)
    tick : int Atomic.t;
    next_pid : int Atomic.t;  (* one-shot: fresh pid per request *)
    next_session : int Atomic.t;
    accepting : bool Atomic.t;
    inflight : int Atomic.t;
    stop_flag : bool Atomic.t;
    mutable workers : unit Domain.t list;
  }

  (* Per-session free list of request records (array stack, fixed cap).
     The session is single-owner, so pool access needs no synchronization;
     a record returns to the pool via [release]/[await_ts] once its
     response has been consumed. *)
  let pool_cap = 256

  type session = {
    svc : t;
    s_pid : int;
    s_shard : int;
    s_park : Park.t;
    mutable s_call : int;
    pool : request array;
    mutable pool_top : int;
  }

  type ticket = request

  exception Stopped

  (* ------------------------------------------------------------------ *)
  (* Intrusive MPSC inbox: lock-free LIFO push, worker drains with one
     exchange and reverses in place to FIFO.                              *)

  let rec push shard req =
    let cur = Atomic.get shard.inbox in
    req.r_next <- cur;
    if not (Atomic.compare_and_set shard.inbox cur req) then begin
      Domain.cpu_relax ();
      push shard req
    end

  (* ------------------------------------------------------------------ *)
  (* Worker: drain the shard inbox in FIFO batches and execute.           *)

  (* The worker's wake condition; [submit] wakes it after its push and
     [stop] after raising the flag. *)
  let has_work ((t : t), shard) =
    Atomic.get shard.inbox != nil || Atomic.get t.stop_flag

  let worker t i () =
    let shard = t.shards.(i) in
    let idle_key = (t, shard) in
    let armed = t.armed in
    let rec reverse_onto acc node =
      if node == nil then acc
      else begin
        let next = node.r_next in
        node.r_next <- acc;
        reverse_onto node next
      end
    in
    let execute_one req =
      let program = T.program ~n:t.n ~pid:req.r_pid ~call:req.r_call in
      let ts =
        if armed then Multicore.Exec.run_obs ~pid:req.r_pid ~regs:t.regs program
        else Multicore.Exec.run ~regs:t.regs program
      in
      req.r_ts <- ts
    in
    (* Stamps (end ticks) are allocated once per chunk of up to
       [stamp_chunk] requests instead of once per request, but only
       *after* the chunk's programs have all executed: a tick claimed
       earlier could witness a happens-before edge from an operation that
       was still running.  (Same-chunk requests become tick-unordered,
       which only removes checker pairs — sound.)  The tick bump must
       still precede each done flip: a client that sees a response (and
       only then submits its next request) must pick a larger start tick,
       the checker's happens-before witness.  The chunk is kept small so
       a request early in a large drain is not held unpublished behind
       the whole batch. *)
    let stamp_chunk = 8 in
    let run_batch first =
      let rec chunks node total =
        if total >= t.batch_max || node == nil then (node, total)
        else begin
          let budget = min stamp_chunk (t.batch_max - total) in
          let rec exec node k =
            if k >= budget || node == nil then (node, k)
            else begin
              execute_one node;
              exec node.r_next (k + 1)
            end
          in
          let rest, k = exec node 0 in
          let base = Atomic.fetch_and_add t.tick k in
          shard.chunks <- shard.chunks + 1;
          (* one wall-clock read per chunk; every record in the chunk
             shares the same boxed float *)
          let stamp = now_us () in
          (* Wake each session once per chunk, after the LAST flip of
             its run: every flip then precedes a wake that reads the
             session's [parked] flag.  Waking after the first flip would
             lose a wakeup for a client that parks on a later record of
             the same run (the model's park-wake-first mutant). *)
          let rec publish node j =
            if j < k then begin
              (* Capture the link before flipping the flag: the instant
                 [r_done] is 1 the client may release and resubmit this
                 very record, rewriting [r_next]. *)
              let next = node.r_next in
              let park = node.r_park in
              node.r_end_tick <- base + j;
              node.r_resp_us <- stamp;
              Atomic.set node.r_done 1;
              if j + 1 = k || next.r_park != park then Park.wake park;
              publish next (j + 1)
            end
          in
          publish node 0;
          ignore (Atomic.fetch_and_add t.inflight (-k));
          chunks rest (total + k)
        end
      in
      chunks first 0
    in
    let backlog = ref nil in
    let rec loop () =
      if !backlog == nil then begin
        match Atomic.exchange shard.inbox nil with
        | drained when drained == nil ->
          (* [stop] only raises the flag once inflight = 0, so an empty
             inbox here means there is nothing left to drain. *)
          if not (Atomic.get t.stop_flag) then begin
            Park.wait shard.park has_work idle_key;
            loop ()
          end
        | drained ->
          backlog := reverse_onto nil drained;
          loop ()
      end
      else begin
        let first = !backlog in
        let rest, size =
          if armed then Obs.Hooks.with_span "svc.batch" (fun () -> run_batch first)
          else run_batch first
        in
        shard.served <- shard.served + size;
        shard.batches <- shard.batches + 1;
        if size > shard.max_batch then shard.max_batch <- size;
        if t.instr then begin
          ignore (Atomic.fetch_and_add shard.depth (-size));
          Obs.Hdr.record shard.batch_hdr size
        end;
        if armed then begin
          Obs.Hooks.counter ~name:"svc.queue_depth"
            (float_of_int (Atomic.get shard.depth));
          Obs.Hooks.observe ~name:"svc.batch_size" (float_of_int size);
          Obs.Hooks.counter ~name:"svc.served" (float_of_int shard.served)
        end;
        backlog := rest;
        loop ()
      end
    in
    loop ()

  (* ------------------------------------------------------------------ *)

  let stop t =
    if Atomic.compare_and_set t.accepting true false then begin
      (* A cold path: the drain sleeps in fixed quanta rather than
         parking, so no completion has to know a stopper is waiting. *)
      while Atomic.get t.inflight > 0 do
        sleep_s 50e-6
      done;
      Atomic.set t.stop_flag true;
      Array.iter (fun (sh : shard) -> Park.wake sh.park) t.shards;
      List.iter Domain.join t.workers
    end

  let start ?(batch_max = 64) ?(shards = 1) ?(telemetry = false) ~n () =
    if n <= 0 then invalid_arg "Service.start: n must be positive";
    if shards <= 0 then invalid_arg "Service.start: shards must be positive";
    if batch_max <= 0 then
      invalid_arg "Service.start: batch_max must be positive";
    let armed = Obs.Hooks.armed () in
    let t =
      { regs =
          Multicore.Exec.make_regs ~num:(T.num_registers ~n)
            ~init:(T.init_value ~n);
        n;
        shards =
          Array.init shards (fun _ ->
              { inbox = Atomic.make nil;
                park = Park.create ();
                depth = Atomic.make 0;
                served = 0;
                batches = 0;
                max_batch = 0;
                chunks = 0;
                batch_hdr = Obs.Hdr.create ~shards:1 () });
        batch_max;
        armed;
        instr = armed || telemetry;
        pooled = Atomic.make 0;
        tick = Atomic.make 0;
        next_pid = Atomic.make 0;
        next_session = Atomic.make 0;
        accepting = Atomic.make true;
        inflight = Atomic.make 0;
        stop_flag = Atomic.make false;
        workers = [] }
    in
    (* A failed spawn (past the runtime's domain limit) stops the
       workers already spawned before the exception propagates. *)
    (try
       for i = 0 to shards - 1 do
         t.workers <- Domain.spawn (worker t i) :: t.workers
       done
     with e ->
       stop t;
       raise e);
    t

  let open_session t =
    let id = Atomic.fetch_and_add t.next_session 1 in
    (match T.kind with
     | `Long_lived ->
       if id >= t.n then
         invalid_arg
           (Printf.sprintf "Service.open_session: %s supports at most n=%d \
                            sessions" T.name t.n)
     | `One_shot -> ());
    { svc = t;
      s_pid = id;
      s_shard = id mod Array.length t.shards;
      s_park = Park.create ();
      s_call = 0;
      pool = Array.make pool_cap nil;
      pool_top = 0 }

  let fresh park =
    { r_pid = -1;
      r_call = -1;
      r_shard = -1;
      r_start_tick = 0;
      r_end_tick = 0;
      r_ts = (Obj.magic 0 : T.result);
      r_resp_us = 0.0;
      r_done = Atomic.make 0;
      r_park = park;
      r_next = nil }

  let submit session =
    let t = session.svc in
    if not (Atomic.get t.accepting) then raise Stopped;
    ignore (Atomic.fetch_and_add t.inflight 1);
    (* Re-check after announcing the request: [stop] sets [accepting] and
       then reads [inflight]; OCaml atomics are SC, so one side always sees
       the other and a request is never both refused and drained-for. *)
    if not (Atomic.get t.accepting) then begin
      ignore (Atomic.fetch_and_add t.inflight (-1));
      raise Stopped
    end;
    let req =
      let top = session.pool_top in
      if top > 0 then begin
        let top = top - 1 in
        session.pool_top <- top;
        let r = session.pool.(top) in
        session.pool.(top) <- nil;
        if t.instr then Atomic.decr t.pooled;
        r
      end
      else fresh session.s_park
    in
    (match T.kind with
     | `One_shot ->
       let pid = Atomic.fetch_and_add t.next_pid 1 in
       if pid >= t.n then begin
         ignore (Atomic.fetch_and_add t.inflight (-1));
         invalid_arg
           (Printf.sprintf
              "Service.submit: one-shot %s exhausted its n=%d process ids"
              T.name t.n)
       end;
       req.r_pid <- pid;
       req.r_call <- 0
     | `Long_lived ->
       let call = session.s_call in
       session.s_call <- call + 1;
       req.r_pid <- session.s_pid;
       req.r_call <- call);
    req.r_shard <- session.s_shard;
    req.r_end_tick <- 0;
    (* Reset the flag before the record becomes reachable from the inbox:
       a worker completing it must never race a stale done = 1. *)
    Atomic.set req.r_done 0;
    req.r_start_tick <- Atomic.get t.tick;
    let shard = t.shards.(session.s_shard) in
    push shard req;
    if t.instr then Atomic.incr shard.depth;
    Park.wake shard.park;
    req

  let is_done (req : ticket) = Atomic.get req.r_done = 1

  let wait_done (req : ticket) = Park.wait req.r_park is_done req

  let await (req : ticket) =
    wait_done req;
    { ts = req.r_ts;
      pid = req.r_pid;
      call = req.r_call;
      shard = req.r_shard;
      start_tick = req.r_start_tick;
      end_tick = req.r_end_tick;
      resp_us = req.r_resp_us }

  let release session (req : ticket) =
    let top = session.pool_top in
    if top < pool_cap then begin
      session.pool.(top) <- req;
      session.pool_top <- top + 1;
      if session.svc.instr then Atomic.incr session.svc.pooled
    end

  let await_ts session (req : ticket) =
    wait_done req;
    let ts = req.r_ts in
    release session req;
    ts

  let get_ts session =
    let ticket = submit session in
    let r = await ticket in
    release session ticket;
    r

  type shard_stats = { served : int; batches : int; max_batch : int }

  let stats t =
    Array.map
      (fun (s : shard) ->
         { served = s.served; batches = s.batches; max_batch = s.max_batch })
      t.shards

  let num_shards t = Array.length t.shards

  (* ------------------------------------------------------------------ *)
  (* Live gauges for the telemetry sampler.  Every closure is safe on a
     foreign domain: it reads atomics or plain int fields (which cannot
     tear), and staleness is expected of a sampled series. *)

  let telemetry_sources t =
    let shard_sources i =
      let sh = t.shards.(i) in
      let p = Printf.sprintf "s%d.%s" i in
      [ (p "depth", fun () -> float_of_int (Atomic.get sh.depth));
        (p "served", fun () -> float_of_int sh.served);
        (p "batches", fun () -> float_of_int sh.batches);
        (p "chunks", fun () -> float_of_int sh.chunks);
        ( p "batch_p50",
          fun () -> Obs.Hdr.percentile (Obs.Hdr.snapshot sh.batch_hdr) 50. ) ]
    in
    List.concat_map shard_sources
      (List.init (Array.length t.shards) Fun.id)
    @ [ ("svc.pool", fun () -> float_of_int (Atomic.get t.pooled)) ]

  let attach_telemetry t ts =
    if not t.instr then
      invalid_arg
        "Service.attach_telemetry: start the service with ~telemetry:true \
         (or with Obs hooks armed) so the gauges are maintained";
    Obs.Timeseries.add_meta ts "shards"
      (Obs.Json.Int (Array.length t.shards));
    Obs.Timeseries.add_meta ts "batch_max" (Obs.Json.Int t.batch_max);
    List.iter
      (fun (name, sample) -> Obs.Timeseries.add_source ts ~name sample)
      (telemetry_sources t);
    Array.iteri
      (fun i sh ->
         Obs.Timeseries.add_stall_rule ts
           ~name:(Printf.sprintf "s%d" i)
           ~depth:(fun () -> float_of_int (Atomic.get sh.depth))
           ~progress:(fun () -> float_of_int sh.served))
      t.shards
end
