let make_regs ~num ~init = Array.init num (fun _ -> Atomic.make init)

(* Real-atomics realizations of the two non-basic [Shm.Prog] operations:
   an Rmw is a CAS loop (retried against the exact value read, so physical
   equality suffices), an Await is a spin with [cpu_relax].  Both match the
   model's semantics: the rmw is one atomic step, and the await consumes no
   shared-memory transition until the guard holds. *)
let rec atomic_update a u =
  let old = Atomic.get a in
  if Atomic.compare_and_set a old (u old) then old
  else begin
    Domain.cpu_relax ();
    atomic_update a u
  end

let rec atomic_wait a g =
  let v = Atomic.get a in
  if g v then v
  else begin
    Domain.cpu_relax ();
    atomic_wait a g
  end

let rec run ~regs = function
  | Shm.Prog.Done x -> x
  | Shm.Prog.Read (r, k) -> run ~regs (k (Atomic.get regs.(r)))
  | Shm.Prog.Write (r, v, k) ->
    Atomic.set regs.(r) v;
    run ~regs (k ())
  | Shm.Prog.Swap (r, v, k) -> run ~regs (k (Atomic.exchange regs.(r) v))
  | Shm.Prog.Rmw (r, u, k) -> run ~regs (k (atomic_update regs.(r) u))
  | Shm.Prog.Await (r, g, k) -> run ~regs (k (atomic_wait regs.(r) g))

(* Instrumented twin of [run], kept separate so the uninstrumented
   interpreter (a benchmarked hot path) pays nothing.  Emits the same
   telemetry events as [Shm.Sim]; real executions and simulated ones then
   feed identical collectors.  The whole program is bracketed in an
   "exec" span, so a trace sink shows per-request execution intervals
   alongside the service's per-batch spans. *)
let run_obs ~pid ~regs p =
  let rec go = function
    | Shm.Prog.Done x ->
      Obs.Hooks.sim Obs.Hooks.Respond ~pid ~reg:(-1);
      x
    | Shm.Prog.Read (r, k) ->
      Obs.Hooks.sim Obs.Hooks.Read ~pid ~reg:r;
      go (k (Atomic.get regs.(r)))
    | Shm.Prog.Write (r, v, k) ->
      Obs.Hooks.sim Obs.Hooks.Write ~pid ~reg:r;
      Atomic.set regs.(r) v;
      go (k ())
    | Shm.Prog.Swap (r, v, k) ->
      Obs.Hooks.sim Obs.Hooks.Swap ~pid ~reg:r;
      go (k (Atomic.exchange regs.(r) v))
    | Shm.Prog.Rmw (r, u, k) ->
      Obs.Hooks.sim Obs.Hooks.Swap ~pid ~reg:r;
      go (k (atomic_update regs.(r) u))
    | Shm.Prog.Await (r, g, k) ->
      Obs.Hooks.sim Obs.Hooks.Read ~pid ~reg:r;
      go (k (atomic_wait regs.(r) g))
  in
  Obs.Hooks.sim Obs.Hooks.Invoke ~pid ~reg:(-1);
  Obs.Hooks.with_span "exec" @@ fun () -> go p

let run_counting ~regs p =
  let rec go ops = function
    | Shm.Prog.Done x -> (x, ops)
    | Shm.Prog.Read (r, k) -> go (ops + 1) (k (Atomic.get regs.(r)))
    | Shm.Prog.Write (r, v, k) ->
      Atomic.set regs.(r) v;
      go (ops + 1) (k ())
    | Shm.Prog.Swap (r, v, k) -> go (ops + 1) (k (Atomic.exchange regs.(r) v))
    | Shm.Prog.Rmw (r, u, k) -> go (ops + 1) (k (atomic_update regs.(r) u))
    | Shm.Prog.Await (r, g, k) -> go (ops + 1) (k (atomic_wait regs.(r) g))
  in
  go 0 p

let make_store ~backend:`Boxed ~num ~init = make_regs ~num ~init

let run_store_counting = run_counting
