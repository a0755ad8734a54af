(* Shm.Prog models of the serving layer's concurrency skeleton.

   Each model encodes one synchronization pattern of [Service]/[Mpsc] as a
   small program over the simulator's SC registers, paired with an
   invariant (checked at every reachable configuration) and a leaf check
   (checked at quiescent maximal configurations), and is verified
   exhaustively under [Shm.Explore].  The models deliberately trade the
   real code's unbounded loops for bounded call counts so the state space
   is finite; DESIGN.md section 13 states the correspondence and what each
   abstraction step does (and does not) hide.

   Seeded mutants re-introduce bugs the real code is structured to avoid —
   a dropped CAS retry, an end tick reserved before execution, a stop that
   skips the in-flight drain, a wake after the first flip of a run, a park
   without the re-check — and exist to prove the invariants can see them:
   the explorer must kill every mutant with a short schedule, committed
   under test/repro_corpus/ and replayed as a regression. *)

type gate = { g_pending : int; g_pushed : int; g_stopping : bool }

type value =
  | V_int of int
  | V_items of (int * int) list  (* mpsc: (producer, seq), top/newest first *)
  | V_slots of int list  (* slot/client ids, top/newest first *)
  | V_gate of gate

type result =
  | R_pushed of int * int
  | R_drained of (int * int) list
  | R_served of { slot : int; req : int; res : int }
  | R_ticked of { t_start : int; t_end : int; order : int }
  | R_submitted
  | R_rejected
  | R_worker of int
  | R_stopper
  | R_ready of int

(* Register accessors.  A model only ever stores one shape per register, so
   a mismatch is a bug in the model itself, not a racy execution. *)
let num = function
  | V_int i -> i
  | _ -> invalid_arg "Model: expected an int register"

let items = function
  | V_items l -> l
  | _ -> invalid_arg "Model: expected an items register"

let slots = function
  | V_slots l -> l
  | _ -> invalid_arg "Model: expected a slots register"

let gate = function
  | V_gate g -> g
  | _ -> invalid_arg "Model: expected the gate register"

type model = Mpsc | Pool | Tick | Stop | Park

let all = [ Mpsc; Pool; Tick; Stop; Park ]

let name = function
  | Mpsc -> "mpsc"
  | Pool -> "pool"
  | Tick -> "tick"
  | Stop -> "stop"
  | Park -> "park"

let of_name = function
  | "mpsc" -> Ok Mpsc
  | "pool" -> Ok Pool
  | "tick" -> Ok Tick
  | "stop" -> Ok Stop
  | "park" -> Ok Park
  | s ->
    Error
      (Printf.sprintf "unknown model %S (expected mpsc|pool|tick|stop|park)" s)

type mutant = { m_name : string; m_model : model; m_desc : string }

let mutants =
  [ { m_name = "mpsc-no-retry";
      m_model = Mpsc;
      m_desc =
        "a producer whose CAS fails gives up and reports success anyway \
         (dropped retry loop): the push is lost" };
    { m_name = "tick-early-reserve";
      m_model = Tick;
      m_desc =
        "the worker reserves the end-tick chunk before executing the batch: \
         a reserved tick can witness an operation still running" };
    { m_name = "stop-no-drain";
      m_model = Stop;
      m_desc =
        "the stopper raises the stop flag without waiting for in-flight \
         requests to drain" };
    { m_name = "park-wake-first";
      m_model = Park;
      m_desc =
        "the worker wakes after the first flip of a run instead of the \
         last: a waiter that parks on a later record of the run sleeps \
         forever" };
    { m_name = "park-no-recheck";
      m_model = Park;
      m_desc =
        "the waiter blocks right after raising parked, without \
         re-checking its done flag: a flip-and-wake that ran just before \
         the raise is lost" } ]

let mutant_of_name s =
  match List.find_opt (fun m -> m.m_name = s) mutants with
  | Some m -> Ok m
  | None ->
    Error
      (Printf.sprintf "unknown model mutant %S (expected %s)" s
         (String.concat "|" (List.map (fun m -> m.m_name) mutants)))

(* ------------------------------------------------------------------ *)

type sys = {
  procs : int;
  num_regs : int;
  init : value array;
  calls_per_proc : int array;
  supplier : (value, result) Shm.Schedule.supplier;
  invariant : (value, result) Shm.Sim.t -> bool;
  leaf : (value, result) Shm.Sim.t -> bool;
}

open Shm.Prog.Syntax

let completed cfg = List.map snd (Shm.Sim.results cfg)

(* --------------------------- mpsc --------------------------------- *)
(* Registers: 0 = the shared Treiber stack (the shard inbox,
   [Mpsc.push]), 1 = the consumer's delivered log (its drained batches,
   oldest first).  Producers 0..n-1 each push [calls] items (pid, seq)
   via the real push protocol: read the head, link the item to it, CAS
   the head to the item — retry on failure.  The consumer (pid n) drains
   with one swap (Atomic.exchange) and appends the reversed batch
   (LIFO -> FIFO, [Mpsc.drain]) to its log; the log is consumer-owned
   so the append is collapsed to one rmw, which removes no observable
   interleaving.

   History depth trades off against width: two pushes per producer pin the
   per-producer FIFO order, but CAS retries make each extra producer
   multiply the state space, so for n >= 3 the exhaustive budget is spent
   on more concurrent producers with one push each (FIFO is already pinned
   exhaustively at n <= 2; the two-drain consumer still exercises
   drain-while-pushing at every n). *)

let mpsc_calls n = if n <= 2 then 2 else 1

let mpsc_sys ~mutant ~n =
  let consumer = n in
  let producer pid seq =
    let item = (pid, seq) in
    let rec attempt () =
      let* cur = Shm.Prog.read 0 in
      let* ok =
        Shm.Prog.cas 0 ~expect:cur ~desired:(V_items (item :: items cur))
      in
      if ok then Shm.Prog.return (R_pushed (pid, seq))
      else if mutant = Some "mpsc-no-retry" then
        (* the bug: CAS failed, item dropped, success reported *)
        Shm.Prog.return (R_pushed (pid, seq))
      else attempt ()
    in
    attempt ()
  in
  let drain =
    let* batch = Shm.Prog.swap 0 (V_items []) in
    let fifo = List.rev (items batch) in
    let* _ =
      Shm.Prog.rmw 1 (fun log -> V_items (items log @ fifo))
    in
    Shm.Prog.return (R_drained fifo)
  in
  let supplier ~pid ~call =
    if pid = consumer then drain else producer pid call
  in
  let pushed_of cfg =
    List.filter_map
      (function R_pushed (p, s) -> Some (p, s) | _ -> None)
      (completed cfg)
  in
  let no_dups l =
    let sorted = List.sort compare l in
    let rec go = function
      | a :: (b :: _ as tl) -> a <> b && go tl
      | _ -> true
    in
    go sorted
  in
  let fifo_per_pid delivered =
    (* seqs of each producer appear in increasing order *)
    let last = Hashtbl.create 8 in
    List.for_all
      (fun (p, s) ->
         let ok =
           match Hashtbl.find_opt last p with
           | Some prev -> s > prev
           | None -> true
         in
         Hashtbl.replace last p s;
         ok)
      delivered
  in
  let accounted cfg =
    (* every completed push is in the stack or the delivered log; only
       meaningful while the consumer is idle — mid-drain it holds the
       swapped batch in its continuation, where no register check can see
       it (the leaf check re-establishes full accounting) *)
    let visible =
      items (Shm.Sim.reg cfg 1) @ items (Shm.Sim.reg cfg 0)
    in
    List.for_all (fun it -> List.mem it visible) (pushed_of cfg)
  in
  let invariant cfg =
    let stack = items (Shm.Sim.reg cfg 0) in
    let delivered = items (Shm.Sim.reg cfg 1) in
    no_dups (stack @ delivered)
    && fifo_per_pid delivered
    && (Shm.Sim.poised cfg consumer <> Shm.Sim.P_idle || accounted cfg)
  in
  let leaf cfg =
    let stack = items (Shm.Sim.reg cfg 0) in
    let delivered = items (Shm.Sim.reg cfg 1) in
    (* delivered ++ bottom-first stack = exactly seqs 0..k-1 per producer *)
    let order = delivered @ List.rev stack in
    let seqs p = List.filter_map
        (fun (q, s) -> if q = p then Some s else None) order
    in
    let pushes = pushed_of cfg in
    List.for_all
      (fun p ->
         let want =
           List.length (List.filter (fun (q, _) -> q = p) pushes)
         in
         seqs p = List.init want Fun.id)
      (List.init n Fun.id)
  in
  { procs = n + 1;
    num_regs = 2;
    init = [| V_items []; V_items [] |];
    (* the consumer drains twice so a drain races both producers and a
       later drain; at n >= 4 a single drain keeps width-4 exhaustive
       (drain-vs-drain is pinned at n <= 3) *)
    calls_per_proc =
      Array.append (Array.make n (mpsc_calls n)) [| (if n >= 4 then 1 else 2) |];
    supplier;
    invariant;
    leaf }

(* --------------------------- pool --------------------------------- *)
(* Registers: 0 = shared inbox of submitted slot ids (the push is collapsed
   to one rmw — the CAS-loop fidelity of the push itself is the mpsc
   model's job); per client c: 1+c = its free list (session pool, single
   owner), 1+n+c = the slot's request field, 1+2n+c = its result field,
   1+3n+c = its r_done flag.  Each client runs [pool_calls] requests
   through one pooled record, so the second call exercises recycling: the
   reset-flag-before-publish ordering of [Service.submit] and the
   write-fields-then-flip-done ordering of the worker's publish.  The
   worker serves one request per method call.  As in the mpsc model,
   recycling is pinned exhaustively at n <= 2; for n >= 3 the budget goes
   to width (one request per client). *)

let pool_calls n = if n <= 2 then 2 else 1

let pool_sys ~mutant:_ ~n =
  let inbox = 0 in
  let pool c = 1 + c in
  let req s = 1 + n + s in
  let res s = 1 + (2 * n) + s in
  let done_ s = 1 + (3 * n) + s in
  let payload c k = (100 * c) + k in
  let answer p = p + 7 in
  let client c k =
    let* free = Shm.Prog.read (pool c) in
    match slots free with
    | [] ->
      (* unreachable in the faithful model: call k+1 starts only after
         call k released; the leaf check rejects it if it ever happens *)
      Shm.Prog.return R_rejected
    | s :: rest ->
      let* () = Shm.Prog.write (pool c) (V_slots rest) in
      let* () = Shm.Prog.write (req s) (V_int (payload c k)) in
      (* reset before the record becomes reachable from the inbox *)
      let* () = Shm.Prog.write (done_ s) (V_int 0) in
      let* _ = Shm.Prog.rmw inbox (fun v -> V_slots (s :: slots v)) in
      let* _ = Shm.Prog.await (done_ s) (fun v -> num v = 1) in
      let* r = Shm.Prog.read (res s) in
      let* _ = Shm.Prog.rmw (pool c) (fun v -> V_slots (s :: slots v)) in
      Shm.Prog.return (R_served { slot = s; req = payload c k; res = num r })
  in
  let worker =
    let* _ = Shm.Prog.await inbox (fun v -> slots v <> []) in
    let* old = Shm.Prog.rmw inbox (fun v -> V_slots (List.tl (slots v))) in
    let s = List.hd (slots old) in
    let* p = Shm.Prog.read (req s) in
    let* () = Shm.Prog.write (res s) (V_int (answer (num p))) in
    (* fields first, then the flag: the flip publishes them *)
    let* () = Shm.Prog.write (done_ s) (V_int 1) in
    Shm.Prog.return (R_worker s)
  in
  let supplier ~pid ~call = if pid = n then worker else client pid call in
  let invariant cfg =
    let pools = List.init n (fun c -> slots (Shm.Sim.reg cfg (pool c))) in
    let inbox_now = slots (Shm.Sim.reg cfg inbox) in
    (* no-double-acquire: client c's pool only ever holds its own slot,
       and no slot is simultaneously free and submitted *)
    List.for_all2
      (fun c p -> p = [] || p = [ c ])
      (List.init n Fun.id) pools
    && List.for_all
      (fun c ->
         not (List.mem c (List.nth pools c) && List.mem c inbox_now))
      (List.init n Fun.id)
    && List.length (List.sort_uniq compare inbox_now)
       = List.length inbox_now
    (* no stale completion: a response always answers the request the
       record was carrying when this client submitted it *)
    && List.for_all
      (function
        | R_served { slot; req = p; res = r } -> slot >= 0 && r = answer p
        | _ -> true)
      (completed cfg)
  in
  let leaf cfg =
    let served =
      List.filter_map
        (function R_served _ -> Some () | _ -> None)
        (completed cfg)
    in
    List.length served = n * pool_calls n
    && slots (Shm.Sim.reg cfg inbox) = []
    && List.for_all
      (fun c -> slots (Shm.Sim.reg cfg (pool c)) = [ c ])
      (List.init n Fun.id)
  in
  { procs = n + 1;
    num_regs = 1 + (4 * n);
    init =
      Array.init (1 + (4 * n)) (fun r ->
          if r >= 1 && r <= n then V_slots [ r - 1 ] else V_slots []);
    calls_per_proc = Array.append (Array.make n (pool_calls n)) [| n * pool_calls n |];
    supplier;
    invariant;
    leaf }

(* --------------------------- tick --------------------------------- *)
(* Registers: 0 = the service-wide tick (Service.t.tick), 1 = the count of
   executed requests (a ghost of "programs that have run", which the real
   code does not store but whose ordering facts it relies on), 2 and 3 =
   the two shards' inboxes, then per client c: 4+c = its end-tick field,
   4+n+c = its execution-order field, 4+2n+c = its r_done flag.  Client c
   submits to shard [c mod 2].  A worker drains its inbox with one swap,
   executes the whole batch (bumping the ghost execution counter), then
   reserves the batch's end ticks with ONE fetch-and-add — after the
   executions, exactly as [Service.run_batch] — and publishes each record
   (end tick = base + j, then the done flip). *)

let tick_sys ~mutant ~n =
  let tick = 0 and execed = 1 in
  let ibox s = 2 + s in
  let endt c = 4 + c in
  let ordr c = 4 + n + c in
  let done_ c = 4 + (2 * n) + c in
  let early = mutant = Some "tick-early-reserve" in
  let client c =
    let* start = Shm.Prog.read tick in
    let* _ = Shm.Prog.rmw (ibox (c mod 2)) (fun v -> V_slots (c :: slots v)) in
    let* _ = Shm.Prog.await (done_ c) (fun v -> num v = 1) in
    let* e = Shm.Prog.read (endt c) in
    let* o = Shm.Prog.read (ordr c) in
    Shm.Prog.return
      (R_ticked { t_start = num start; t_end = num e; order = num o })
  in
  let worker s =
    let expected = (n - s + 1) / 2 in
    (* clients with c mod 2 = s *)
    let rec exec orders = function
      | [] -> Shm.Prog.return (List.rev orders)
      | _ :: tl ->
        let* old = Shm.Prog.rmw execed (fun v -> V_int (num v + 1)) in
        exec ((num old + 1) :: orders) tl
    in
    let rec publish base j batch orders =
      match (batch, orders) with
      | [], [] -> Shm.Prog.return ()
      | c :: bt, o :: ot ->
        let* () = Shm.Prog.write (endt c) (V_int (base + j)) in
        let* () = Shm.Prog.write (ordr c) (V_int o) in
        let* () = Shm.Prog.write (done_ c) (V_int 1) in
        publish base (j + 1) bt ot
      | _ -> assert false
    in
    let reserve k = Shm.Prog.rmw tick (fun v -> V_int (num v + k)) in
    let rec serve served =
      if served >= expected then Shm.Prog.return (R_worker served)
      else
        let* _ = Shm.Prog.await (ibox s) (fun v -> slots v <> []) in
        let* old = Shm.Prog.swap (ibox s) (V_slots []) in
        let batch = List.rev (slots old) in
        let k = List.length batch in
        if early then
          (* the bug: ticks reserved before the batch has executed *)
          let* base = reserve k in
          let* orders = exec [] batch in
          let* () = publish (num base) 0 batch orders in
          serve (served + k)
        else
          let* orders = exec [] batch in
          let* base = reserve k in
          let* () = publish (num base) 0 batch orders in
          serve (served + k)
    in
    serve 0
  in
  let supplier ~pid ~call:_ =
    if pid < n then client pid else worker (pid - n)
  in
  let invariant cfg =
    (* publish-after-execute soundness: the tick only ever witnesses
       completed executions.  The early-reserve mutant breaks exactly
       this. *)
    num (Shm.Sim.reg cfg tick) <= num (Shm.Sim.reg cfg execed)
    && List.for_all
      (function
        | R_ticked { t_start; t_end; order } ->
          t_start <= t_end && order >= 1
        | _ -> true)
      (completed cfg)
  in
  let leaf cfg =
    let ticked =
      List.filter_map
        (function
          | R_ticked { t_start; t_end; order } -> Some (t_start, t_end, order)
          | _ -> None)
        (completed cfg)
    in
    List.length ticked = n
    (* end ticks are distinct, and tick order refines execution order:
       a response published before another's start executed first *)
    && List.length
         (List.sort_uniq compare (List.map (fun (_, e, _) -> e) ticked))
       = n
    && List.for_all
      (fun (_, end_a, ord_a) ->
         List.for_all
           (fun (start_b, _, ord_b) -> end_a >= start_b || ord_a < ord_b)
           ticked)
      ticked
  in
  { procs = n + 2;
    num_regs = 4 + (3 * n);
    init =
      Array.init (4 + (3 * n)) (fun r ->
          if r = 2 || r = 3 then V_slots [] else V_int 0);
    calls_per_proc = Array.append (Array.make n 1) [| 1; 1 |];
    supplier;
    invariant;
    leaf }

(* --------------------------- stop --------------------------------- *)
(* Registers: 0 = the stop gate (0 = accepting; Service.t.accepting
   inverted so every register can start at a zero-like value), 1 = the
   in-flight count, 2 = one record merging the inbox depth, the number of
   accepted submissions and the stop flag (merged so the worker's wait is
   a single-register await guard: pending > 0 or stopping), 3 = the served
   count.  Clients are ANONYMOUS — the program captures no pid — which is
   the faithful reading of [Service.submit]'s gate (any thread may call
   it) and makes the whole client population one symmetry class, so this
   model is where the v3 quotient earns its keep.  The protocol mirrors
   [submit]/[stop]: announce in-flight, re-check the gate (the SC
   conversation with [stop]'s accepting-then-read-inflight), submit or
   withdraw; the stopper closes the gate, awaits in-flight = 0, then
   raises the stop flag; the worker drains until stopping and drained. *)

let stop_sys ~mutant ~n =
  let gate_r = 2 in
  let no_drain = mutant = Some "stop-no-drain" in
  let client =
    let* g0 = Shm.Prog.read 0 in
    if num g0 <> 0 then Shm.Prog.return R_rejected
    else
      let* _ = Shm.Prog.rmw 1 (fun v -> V_int (num v + 1)) in
      let* g1 = Shm.Prog.read 0 in
      if num g1 <> 0 then
        let* _ = Shm.Prog.rmw 1 (fun v -> V_int (num v - 1)) in
        Shm.Prog.return R_rejected
      else
        let* _ =
          Shm.Prog.rmw gate_r (fun v ->
              let g = gate v in
              V_gate
                { g with
                  g_pending = g.g_pending + 1;
                  g_pushed = g.g_pushed + 1 })
        in
        Shm.Prog.return R_submitted
  in
  let worker =
    let rec loop total =
      let* _ =
        Shm.Prog.await gate_r (fun v ->
            let g = gate v in
            g.g_pending > 0 || g.g_stopping)
      in
      let* old =
        Shm.Prog.rmw gate_r (fun v -> V_gate { (gate v) with g_pending = 0 })
      in
      let g = gate old in
      let k = g.g_pending in
      if k > 0 then
        let* _ = Shm.Prog.rmw 3 (fun v -> V_int (num v + k)) in
        let* _ = Shm.Prog.rmw 1 (fun v -> V_int (num v - k)) in
        loop (total + k)
      else if g.g_stopping then Shm.Prog.return (R_worker total)
      else loop total
    in
    loop 0
  in
  let stopper =
    let* _ = Shm.Prog.rmw 0 (fun _ -> V_int 1) in
    let raise_flag =
      let* _ =
        Shm.Prog.rmw gate_r (fun v -> V_gate { (gate v) with g_stopping = true })
      in
      Shm.Prog.return R_stopper
    in
    if no_drain then raise_flag
    else
      let* _ = Shm.Prog.await 1 (fun v -> num v = 0) in
      raise_flag
  in
  let supplier ~pid ~call:_ =
    if pid < n then client else if pid = n then worker else stopper
  in
  (* The stopping conjunct deliberately says nothing about in-flight:
     [Service.submit] announces in-flight *before* re-checking the gate, so
     a client that read the open gate can still bump the count after [stop]
     observed zero — it then sees the closed gate and withdraws without
     pushing.  The explorer found exactly that schedule against the
     stronger [infl = 0] conjunct (17 actions, n = 2).  The safety claim
     the drain actually buys is that once the flag is up no accepted work
     remains: nothing pending, everything pushed already served. *)
  let invariant cfg =
    let g = gate (Shm.Sim.reg cfg gate_r) in
    let infl = num (Shm.Sim.reg cfg 1) in
    let served = num (Shm.Sim.reg cfg 3) in
    served <= g.g_pushed
    && g.g_pending >= 0
    && g.g_pending <= infl
    && (not g.g_stopping || (g.g_pending = 0 && served = g.g_pushed))
  in
  let leaf cfg =
    let g = gate (Shm.Sim.reg cfg gate_r) in
    let served = num (Shm.Sim.reg cfg 3) in
    let submitted =
      List.length
        (List.filter (fun r -> r = R_submitted) (completed cfg))
    in
    g.g_stopping && served = submitted && submitted = g.g_pushed
  in
  { procs = n + 2;
    num_regs = 4;
    init =
      [| V_int 0;
         V_int 0;
         V_gate { g_pending = 0; g_pushed = 0; g_stopping = false };
         V_int 0 |];
    calls_per_proc = Array.append (Array.make n 1) [| 1; 1 |];
    supplier;
    invariant;
    leaf }

(* --------------------------- park --------------------------------- *)
(* Registers: 0 = the session park's [parked] flag, 1 = its condition
   variable's wakeup token, 2+j = the done flag of the j-th record of one
   session's run in a stamp chunk, j < n.  The worker (pid 0) flips the
   run's done flags and then wakes once: read parked, and if it is
   raised, CAS it down and set the token — [Park.wake].  The waiter
   (pid 1) awaits the records in order within one call, as
   [Client.Inproc.stamp_batch] does: per record one poll (the spin,
   collapsed to a single read), then park — raise parked, re-check the
   flag, and only if it is still clear await the token, consume it,
   lower parked and check again.

   The leaf check is the liveness claim: at a maximal configuration the
   waiter is not blocked, so no wakeup was lost.  A lost wakeup leaves the
   waiter awaiting a token nobody will set, which surfaces as a maximal
   configuration with a running process. *)

let park_sys ~mutant ~n =
  let parked = 0 and token = 1 in
  let done_ j = 2 + j in
  let wake_first = mutant = Some "park-wake-first" in
  let no_recheck = mutant = Some "park-no-recheck" in
  let rec park j =
    let* () = Shm.Prog.write parked (V_int 1) in
    let* d =
      if no_recheck then Shm.Prog.return (V_int 0)
      else Shm.Prog.read (done_ j)
    in
    if num d = 1 then
      let* () = Shm.Prog.write parked (V_int 0) in
      await_from (j + 1)
    else
      let* _ = Shm.Prog.await token (fun v -> num v = 1) in
      let* () = Shm.Prog.write token (V_int 0) in
      let* () = Shm.Prog.write parked (V_int 0) in
      let* d = Shm.Prog.read (done_ j) in
      if num d = 1 then await_from (j + 1) else park j
  and await_from j =
    if j >= n then Shm.Prog.return (R_ready n)
    else
      let* d = Shm.Prog.read (done_ j) in
      if num d = 1 then await_from (j + 1) else park j
  in
  let wake =
    let* p = Shm.Prog.read parked in
    if num p = 1 then
      let* won = Shm.Prog.cas parked ~expect:(V_int 1) ~desired:(V_int 0) in
      if won then Shm.Prog.write token (V_int 1) else Shm.Prog.return ()
    else Shm.Prog.return ()
  in
  let worker =
    let rec flip j =
      if j >= n then Shm.Prog.return ()
      else
        let* () = Shm.Prog.write (done_ j) (V_int 1) in
        (* the bug: the run's wake comes right after its first flip *)
        let* () = if wake_first && j = 0 then wake else Shm.Prog.return () in
        flip (j + 1)
    in
    let* () = flip 0 in
    let* () = if wake_first then Shm.Prog.return () else wake in
    Shm.Prog.return (R_worker n)
  in
  let supplier ~pid ~call:_ = if pid = 0 then worker else await_from 0 in
  (* safety: the waiter returns only once every record of the run is
     done *)
  let invariant cfg =
    List.for_all
      (function
        | R_ready k ->
          List.for_all
            (fun j -> num (Shm.Sim.reg cfg (done_ j)) = 1)
            (List.init k Fun.id)
        | _ -> true)
      (completed cfg)
  in
  let leaf cfg =
    Shm.Sim.running cfg = [] && List.mem (R_ready n) (completed cfg)
  in
  { procs = 2;
    num_regs = 2 + n;
    init = Array.make (2 + n) (V_int 0);
    calls_per_proc = [| 1; 1 |];
    supplier;
    invariant;
    leaf }

(* ------------------------------------------------------------------ *)

let sys ?mutant model ~n =
  if n < 1 then invalid_arg "Model.sys: n must be >= 1";
  (match mutant with
   | None -> Ok ()
   | Some mn -> (
       match mutant_of_name mn with
       | Error e -> Error e
       | Ok m when m.m_model <> model ->
         Error
           (Printf.sprintf "mutant %S belongs to model %s, not %s" mn
              (name m.m_model) (name model))
       | Ok _ -> Ok ()))
  |> Result.map (fun () ->
      match model with
      | Mpsc -> mpsc_sys ~mutant ~n
      | Pool -> pool_sys ~mutant ~n
      | Tick -> tick_sys ~mutant ~n
      | Stop -> stop_sys ~mutant ~n
      | Park -> park_sys ~mutant ~n)

let initial s = Shm.Sim.of_regs ~n:s.procs ~regs:s.init

let verify ?max_steps ?max_paths ?dedup ?reduction ?symmetry ?domains
    ?mutant model ~n =
  Result.map
    (fun s ->
       Shm.Explore.explore ?max_steps ?max_paths ?dedup ?reduction ?symmetry
         ?domains ~supplier:s.supplier
         ~calls_per_proc:s.calls_per_proc ~invariant:s.invariant
         ~leaf_check:s.leaf (initial s))
    (sys ?mutant model ~n)

(* ------------------------------------------------------------------ *)
(* Scripted replay: used by the repro corpus regression and the shrinker.
   A schedule "fails" when it violates the invariant at some prefix, ends
   in a deadlock (a blocked process and nothing runnable), or reaches a
   quiescent maximal configuration that fails the leaf check.  Structurally
   invalid schedules (stepping an idle process, invoking past the call
   budget) are reported as [Error]: the shrinker treats them as passing. *)

let replay ?mutant model ~n schedule =
  match sys ?mutant model ~n with
  | Error e -> Error e
  | Ok s ->
    let progs = Shm.Schedule.programs s.supplier ~n:s.procs in
    let rec go cfg = function
      | [] ->
        (* A maximal configuration is one with no enabled action at all:
           nothing runnable AND no idle process with budget left to invoke
           (invoking one could unblock an awaiting process, so a blocked
           running set alone is not yet a deadlock). *)
        let maximal =
          Shm.Sim.runnable cfg = []
          && List.for_all
            (fun pid ->
               Shm.Sim.poised cfg pid <> Shm.Sim.P_idle
               || Shm.Sim.calls cfg pid >= s.calls_per_proc.(pid))
            (List.init s.procs Fun.id)
        in
        if not (s.invariant cfg) then Ok (Some "invariant violation")
        else if maximal && Shm.Sim.running cfg <> [] then
          Ok (Some "deadlock: every in-progress call is blocked")
        else if maximal && not (s.leaf cfg) then Ok (Some "leaf check failed")
        else Ok None
      | a :: rest ->
        if not (s.invariant cfg) then Ok (Some "invariant violation")
        else (
          match
            match (a : Shm.Schedule.action) with
            | Shm.Schedule.Step pid -> Shm.Sim.step cfg pid
            | Shm.Schedule.Invoke pid ->
              if Shm.Sim.calls cfg pid >= s.calls_per_proc.(pid) then
                invalid_arg "call budget exceeded"
              else Shm.Sim.invoke cfg ~pid ~program:progs.(pid)
            | Shm.Schedule.Crash pid -> Shm.Sim.crash cfg pid
          with
          | cfg -> go cfg rest
          | exception Invalid_argument m -> Error m)
    in
    go (initial s) schedule

(* A repro document for the corpus: reuses the fuzz repro schema with the
   impl field carrying "model/<model>/<mutant>" so [ts_cli verify-svc
   --replay] and the fuzz replayer cannot be fed each other's files by
   mistake. *)

let impl_string model mutant =
  match mutant with
  | None -> "model/" ^ name model
  | Some m -> "model/" ^ name model ^ "/" ^ m

let impl_of_string s =
  match String.split_on_char '/' s with
  | [ "model"; m ] -> Result.map (fun model -> (model, None)) (of_name m)
  | [ "model"; m; mut ] ->
    Result.bind (of_name m) (fun model ->
        Result.map (fun mu -> (model, Some mu.m_name)) (mutant_of_name mut))
  | _ -> Error (Printf.sprintf "not a model repro impl: %S" s)

let to_repro ?mutant model ~n schedule : Fuzz.Repro.t =
  { impl = impl_string model mutant;
    n;
    seed = None;
    iteration = None;
    schedule }

let replay_repro (r : Fuzz.Repro.t) =
  Result.bind (impl_of_string r.impl) (fun (model, mutant) ->
      replay ?mutant model ~n:r.n r.schedule)

(* Greedy minimization via the fuzz shrinker.  The oracle re-runs the
   candidate schedule; [n] lowering is disabled by pinning the oracle's
   system size (model processes are heterogeneous — dropping "the highest
   pid" would remove the stopper or a worker, changing the system rather
   than shrinking it), which the shrinker handles by simply failing those
   candidates. *)
let shrink ?mutant model ~n schedule =
  let oracle ~n:n' sched =
    if n' <> n then None
    else
      match replay ?mutant model ~n sched with
      | Ok (Some why) -> Some why
      | Ok None | Error _ -> None
  in
  match Fuzz.Shrink.minimize ~oracle ~n schedule with
  | Some m -> Some (m.schedule, m.witness)
  | None -> None
