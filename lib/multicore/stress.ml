module Make (T : Timestamp.Intf.S) = struct
  type op_record = {
    pid : int;
    call : int;
    start_tick : int;
    end_tick : int;
    ts : T.result;
  }

  let run ~n ~calls () =
    if n <= 0 then invalid_arg "Stress.run: n must be positive";
    let calls = match T.kind with `One_shot -> 1 | `Long_lived -> calls in
    let regs =
      Exec.make_regs ~num:(T.num_registers ~n) ~init:(T.init_value ~n)
    in
    let tick = Atomic.make 0 in
    let ready = Atomic.make 0 in
    (* The start gate: spawned domains sleep on it until every domain
       exists, so spinning domains do not slow the spawns; a failed spawn
       opens it with [`Abort] and the waiting domains return without
       running. *)
    let gate = Mutex.create () in
    let opened = Condition.create () in
    let state = ref `Closed in
    let open_gate s =
      Mutex.lock gate;
      state := s;
      Condition.broadcast opened;
      Mutex.unlock gate
    in
    (* Sampled once: the armed interpreter must not flip mid-run, and the
       spawned domains must not read the hook installation racily. *)
    let armed = Obs.Hooks.armed () in
    let worker pid () =
      let rec go call acc =
        if call >= calls then List.rev acc
        else begin
          if armed then Obs.Hooks.sim Obs.Hooks.Invoke ~pid ~reg:(-1);
          let start_tick = Atomic.get tick in
          let ts =
            if armed then Exec.run_obs ~pid ~regs (T.program ~n ~pid ~call)
            else Exec.run ~regs (T.program ~n ~pid ~call)
          in
          let end_tick = Atomic.fetch_and_add tick 1 in
          go (call + 1) ({ pid; call; start_tick; end_tick; ts } :: acc)
        end
      in
      Mutex.lock gate;
      while !state = `Closed do
        Condition.wait opened gate
      done;
      let go_ahead = !state = `Go in
      Mutex.unlock gate;
      if not go_ahead then []
      else begin
        (* Barrier: start all domains together to maximize contention. *)
        Atomic.incr ready;
        while Atomic.get ready < n do
          Domain.cpu_relax ()
        done;
        go 0 []
      end
    in
    Obs.Hooks.with_span "stress.run" @@ fun () ->
    let domains =
      Obs.Hooks.with_span "stress.spawn" @@ fun () ->
      let spawned = ref [] in
      (* A failed spawn (past the runtime's domain limit) joins the domains
         already spawned before the exception propagates. *)
      (try
         for pid = 0 to n - 1 do
           spawned := Domain.spawn (worker pid) :: !spawned
         done
       with e ->
         open_gate `Abort;
         List.iter (fun d -> ignore (Domain.join d)) !spawned;
         raise e);
      open_gate `Go;
      List.rev !spawned
    in
    List.concat_map Domain.join domains

  (* end1 < start2 means op1's final counter bump was observed before op2
     began, which is a sound happens-before witness; the prefix-scan pass
     itself lives in [Timestamp.Checker.check_timed] so the service load
     generator shares the same verdict code. *)
  let check records =
    Obs.Hooks.with_span "stress.check" @@ fun () ->
    let timed =
      List.map
        (fun r ->
           { Timestamp.Checker.td_pid = r.pid; td_call = r.call;
             td_start = r.start_tick; td_end = r.end_tick; td_ts = r.ts })
        records
    in
    match
      Timestamp.Checker.check_timed ~order:T.order ~compare_ts:T.compare_ts
        ~pp:T.pp_ts timed
    with
    | Ok pairs -> Ok pairs
    | Error v ->
      Error (Format.asprintf "%a" Timestamp.Checker.pp_violation v)

  let run_and_check ~n ~calls () = check (run ~n ~calls ())
end
