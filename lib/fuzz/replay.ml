type stats = {
  applied : int;
  skipped : int;
  drained : int;
}

let run (type v r) ?(fuel = 1_000_000)
    (module T : Timestamp.Intf.S with type value = v and type result = r) ~n
    actions : (v, r) Shm.Sim.t * stats =
  let module H = Timestamp.Harness.Make (T) in
  let cfg = H.create ~n in
  let max_calls = match T.kind with `One_shot -> 1 | `Long_lived -> max_int in
  let programs = Shm.Schedule.programs (H.supplier ~n) ~n in
  let applied = ref 0 and skipped = ref 0 in
  let apply cfg (a : Shm.Schedule.action) =
    let enabled =
      match a with
      | Invoke p | Step p | Crash p when p < 0 || p >= n ->
        (* out-of-range pids can appear transiently while the shrinker
           probes a smaller n; treat them as disabled *)
        false
      | Invoke p ->
        List.mem p (Shm.Sim.idle cfg) && Shm.Sim.calls cfg p < max_calls
      | Step p | Crash p -> (
          match Shm.Sim.poised cfg p with
          | Shm.Sim.P_idle | Shm.Sim.P_crashed -> false
          | _ -> true)
    in
    if not enabled then begin
      incr skipped;
      cfg
    end
    else begin
      incr applied;
      match a with
      | Invoke p -> Shm.Sim.invoke cfg ~pid:p ~program:programs.(p)
      | Step p -> Shm.Sim.step cfg p
      | Crash p -> Shm.Sim.crash cfg p
    end
  in
  let cfg = List.fold_left apply cfg actions in
  let before = Shm.Sim.steps cfg in
  match Shm.Schedule.run_round_robin ~fuel cfg with
  | None ->
    failwith
      (Printf.sprintf
         "Fuzz.Replay.run: %s did not quiesce within %d steps (wait-freedom \
          violation?)"
         T.name fuel)
  | Some cfg ->
    ( cfg,
      { applied = !applied;
        skipped = !skipped;
        drained = Shm.Sim.steps cfg - before } )
