type action =
  | Invoke of int
  | Step of int
  | Crash of int

type ('v, 'r) supplier = pid:int -> call:int -> ('v, 'r) Prog.t

let programs supplier ~n =
  Array.init n (fun pid -> fun ~call -> supplier ~pid ~call)

let apply_action supplier cfg action =
  match action with
  | Invoke pid ->
    Sim.invoke cfg ~pid ~program:(fun ~call -> supplier ~pid ~call)
  | Step pid -> Sim.step cfg pid
  | Crash pid -> Sim.crash cfg pid

let apply supplier cfg actions =
  (* Build each process's program closure at most once per replay instead of
     once per action; replays inside adversary and DFS inner loops apply
     thousands of actions over the same few processes. *)
  let progs = lazy (programs supplier ~n:(Sim.n cfg)) in
  List.fold_left
    (fun cfg action ->
       match action with
       | Invoke pid -> Sim.invoke cfg ~pid ~program:(Lazy.force progs).(pid)
       | Step pid -> Sim.step cfg pid
       | Crash pid -> Sim.crash cfg pid)
    cfg actions

let invoke_all supplier cfg pids =
  let progs = programs supplier ~n:(Sim.n cfg) in
  List.fold_left
    (fun cfg pid -> Sim.invoke cfg ~pid ~program:progs.(pid))
    cfg pids

type footprint =
  | F_read of int
  | F_write of int
  | F_invoke
  | F_hist
  | F_none

let footprint cfg action =
  match action with
  | Invoke _ -> F_invoke
  | Crash _ -> F_hist
  | Step pid -> (
      match Sim.poised cfg pid with
      | Sim.P_read r -> F_read r
      (* An rmw both reads and writes its register; F_write is the
         conservative footprint (dependent on every same-register access).
         An await step is a guarded read — F_read keeps it dependent on
         same-register writes, which is exactly what can enable/disable the
         guard, so the sleep-set reduction never commutes an await past the
         write that wakes it. *)
      | Sim.P_write (r, _) | Sim.P_swap (r, _) | Sim.P_rmw r -> F_write r
      | Sim.P_await (r, _) -> F_read r
      | Sim.P_respond -> F_hist
      | Sim.P_idle | Sim.P_crashed -> F_none)

let independent a b =
  match a, b with
  | F_none, _ | _, F_none -> true
  (* Two invocations of distinct processes commute: happens-before only
     relates a response to a *later* invocation, so which of two adjacent
     invocations came first is unobservable (both have the same invocation
     epoch).  An invocation and a response do NOT commute — their order is
     exactly what happens-before records.  Crashes stay conservatively
     dependent on all history events. *)
  | F_invoke, F_invoke -> true
  | F_invoke, F_hist | F_hist, F_invoke -> false
  | F_hist, F_hist -> false
  | (F_invoke | F_hist), (F_read _ | F_write _)
  | (F_read _ | F_write _), (F_invoke | F_hist) -> true
  | F_read _, F_read _ -> true
  | F_read r, F_write w | F_write w, F_read r -> r <> w
  | F_write r, F_write w -> r <> w

(* Process-symmetry detection: two pids are interchangeable when every call
   they can make is structurally the same program ({!Prog.structural_key}
   descends into closure environments, so a pid-dependent register index or
   seed captured anywhere in the tree separates the classes).  Detection is
   O(n^2) key comparisons on at most [max calls] keys per pid — negligible
   next to exploration, and conservative: an undetected symmetry only costs
   work, a falsely detected one would need a double-hash collision. *)
let symmetry_classes (supplier : _ supplier) ~n ~calls_per_proc =
  if Array.length calls_per_proc <> n then
    invalid_arg "Schedule.symmetry_classes: calls_per_proc size mismatch";
  let keys =
    Array.init n (fun pid ->
        Array.init calls_per_proc.(pid) (fun call ->
            Prog.structural_key (supplier ~pid ~call)))
  in
  let classes = Array.make n 0 in
  for pid = 0 to n - 1 do
    let rec rep p = if keys.(p) = keys.(pid) then p else rep (p + 1) in
    classes.(pid) <- rep 0
  done;
  classes

let covered_count cfg =
  let m = Sim.num_regs cfg in
  let covered = Array.make m false in
  let rec go pid count =
    if pid >= Sim.n cfg then count
    else
      match Sim.covers cfg pid with
      | Some r when not covered.(r) ->
        covered.(r) <- true;
        go (pid + 1) (count + 1)
      | Some _ | None -> go (pid + 1) count
  in
  go 0 0

(* Telemetry sample of the live covering occupancy — the quantity the
   paper's lower-bound adversaries maximize.  Armed-only: the O(n) scan and
   the array never run in ordinary workloads. *)
let sample_covered cfg =
  if Obs.Hooks.armed () then
    Obs.Hooks.counter ~name:"sim.covered" (float_of_int (covered_count cfg))

let run_round_robin ~fuel cfg =
  let rec go fuel cfg =
    match Sim.running cfg with
    | [] -> Some cfg
    | _ -> (
        match Sim.runnable cfg with
        | [] -> None  (* every call in progress is blocked on a guard *)
        | pids ->
          if fuel <= 0 then None
          else
            let fuel, cfg =
              List.fold_left
                (fun (fuel, cfg) pid ->
                   (* A process may respond and go idle — or block on a
                      guard — while earlier pids in the same round are
                      stepped, so re-check. *)
                   match Sim.poised cfg pid with
                   | Sim.P_idle | Sim.P_crashed | Sim.P_await (_, false) ->
                     (fuel, cfg)
                   | _ -> (fuel - 1, Sim.step cfg pid))
                (fuel, cfg) pids
            in
            go fuel cfg)
  in
  go fuel cfg

let run_random ~fuel ~rand cfg =
  let rec go fuel cfg =
    match Sim.running cfg with
    | [] -> Some cfg
    | _ -> (
        match Sim.runnable cfg with
        | [] -> None  (* deadlock: blocked guards only *)
        | pids ->
          if fuel <= 0 then None
          else
            let pid =
              List.nth pids (Random.State.int rand (List.length pids))
            in
            go (fuel - 1) (Sim.step cfg pid))
  in
  go fuel cfg

let run_workload ?invoke_prob ?(crash_prob = 0.) ?(max_crashes = 0) ~fuel
    ~rand ~calls_per_proc supplier cfg =
  let n = Sim.n cfg in
  if Array.length calls_per_proc <> n then
    invalid_arg "Schedule.run_workload: calls_per_proc size mismatch";
  let crashes = ref 0 in
  let rec go fuel cfg =
    let runnable = Sim.runnable cfg in
    let startable =
      List.filter
        (fun pid -> Sim.calls cfg pid < calls_per_proc.(pid))
        (Sim.idle cfg)
    in
    match runnable, startable with
    | [], [] ->
      (* Quiescent, or a deadlock of blocked await guards. *)
      if Sim.running cfg = [] then Some cfg else None
    | _ ->
      if fuel <= 0 then None
      else if
        runnable <> [] && !crashes < max_crashes
        && Random.State.float rand 1.0 < crash_prob
      then begin
        let pid =
          List.nth runnable (Random.State.int rand (List.length runnable))
        in
        incr crashes;
        go (fuel - 1) (Sim.crash cfg pid)
      end
      else begin
        let pick l = List.nth l (Random.State.int rand (List.length l)) in
        let do_invoke =
          match runnable, startable with
          | _, [] -> false
          | [], _ -> true
          | _ -> (
              match invoke_prob with
              | Some p -> Random.State.float rand 1.0 < p
              | None ->
                (* proportional to the number of enabled actions *)
                let r = List.length runnable and s = List.length startable in
                Random.State.int rand (r + s) >= r)
        in
        let cfg =
          if do_invoke then
            let pid = pick startable in
            Sim.invoke cfg ~pid ~program:(fun ~call -> supplier ~pid ~call)
          else Sim.step cfg (pick runnable)
        in
        sample_covered cfg;
        go (fuel - 1) cfg
      end
  in
  go fuel cfg

let run_solo_trace ~fuel cfg pid =
  let rec go fuel cfg rev_trace =
    match Sim.poised cfg pid with
    | Sim.P_idle -> Some (cfg, List.rev rev_trace)
    | Sim.P_crashed -> invalid_arg "Schedule.run_solo_trace: crashed process"
    | Sim.P_await (_, false) -> None  (* solo: the guard can never turn true *)
    | _ ->
      if fuel = 0 then None
      else go (fuel - 1) (Sim.step cfg pid) (cfg :: rev_trace)
  in
  go fuel cfg []

let run_pct ?(length_hint = 500) ~fuel ~rand ~depth ~calls_per_proc supplier
    cfg =
  let n = Sim.n cfg in
  if Array.length calls_per_proc <> n then
    invalid_arg "Schedule.run_pct: calls_per_proc size mismatch";
  (* distinct random priorities; higher runs first *)
  let priority = Array.init n (fun i -> float_of_int i +. Random.State.float rand 0.99) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = priority.(i) in
    priority.(i) <- priority.(j);
    priority.(j) <- t
  done;
  let change_points =
    List.init (max 0 (depth - 1)) (fun _ ->
        1 + Random.State.int rand (max 1 length_hint))
    |> List.sort_uniq Int.compare
  in
  let min_priority = ref 0. in
  let demote pid =
    min_priority := !min_priority -. 1.;
    priority.(pid) <- !min_priority
  in
  let rec go fuel steps cfg =
    let runnable = Sim.runnable cfg in
    let startable =
      List.filter (fun pid -> Sim.calls cfg pid < calls_per_proc.(pid))
        (Sim.idle cfg)
    in
    match runnable @ startable with
    | [] -> if Sim.running cfg = [] then Some cfg else None
    | enabled ->
      if fuel <= 0 then None
      else begin
        let pid =
          List.fold_left
            (fun best p ->
               if priority.(p) > priority.(best) then p else best)
            (List.hd enabled) enabled
        in
        let cfg =
          if List.mem pid runnable then Sim.step cfg pid
          else Sim.invoke cfg ~pid ~program:(fun ~call -> supplier ~pid ~call)
        in
        if List.mem steps change_points then demote pid;
        go (fuel - 1) (steps + 1) cfg
      end
  in
  go fuel 1 cfg
