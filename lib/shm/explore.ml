type domain_stats = {
  d_branches : int;
  d_expanded : int;
  d_configurations : int;
  d_dedup_hits : int;
  d_sleep_skips : int;
  d_canon_hits : int;
  d_steals : int;
  d_seconds : float;
}

type stats = {
  paths : int;
  truncated_paths : int;
  configurations : int;
  expanded : int;
  dedup_hits : int;
  sleep_skips : int;
  canon_hits : int;
  symmetric : bool;
  exhaustive : bool;
  seconds : float;
  per_domain : domain_stats array;
}

type ('v, 'r) outcome =
  | Ok of stats
  | Counterexample of {
      cfg : ('v, 'r) Sim.t;
      schedule : Schedule.action list;
      at_leaf : bool;
    }

(* One visited-set entry: the Pareto frontier of (remaining depth budget,
   sleep mask) pairs under which the configuration (or, under the symmetry
   quotient, its orbit) was already expanded, plus the raw fingerprint of
   the entry's creator so orbit-crossing hits can be counted.  A revisit is
   pruned only when dominated: some recorded visit had at least as much
   remaining depth AND a sleep set included in the current one (so it
   explored a superset of the transitions this visit would).  Under the
   quotient, sleep masks are stored and compared in canonical coordinates
   ({!Sim.canonical_perm}): subset relations between masks of different
   orbit members are only meaningful after mapping both through their own
   canonical permutations. *)
type entry = {
  e_raw : int;
  mutable e_frontier : (int * int) list;
}

(* Mutable per-worker-domain accounting; merged into [stats] at the end.
   In parallel mode one wstate (and hence one visited table) is reused for
   every frontier node the domain runs: cross-node dedup is sound for the
   same reason sequential whole-tree dedup is — a dominating visit proves
   an earlier node of the same domain explored the subtree at least as
   deeply, and found no counterexample there (the table is reset after a
   node that failed or was cancelled, whose entries cover partial
   subtrees). *)
type wstate = {
  mutable w_branches : int;  (* frontier nodes this domain ran *)
  mutable w_paths : int;
  mutable w_truncated : int;
  mutable w_configs : int;
  mutable w_expanded : int;
  mutable w_dedup : int;
  mutable w_sleep : int;
  mutable w_canon : int;  (* visits keyed to an orbit-mate's entry *)
  mutable w_steals : int;  (* frontier nodes taken from another deque *)
  mutable w_ns : int;  (* [Obs.Clock] nanoseconds spent inside branches *)
  mutable w_budget_hit : bool;
  visited : (int, entry) Hashtbl.t;
  (* per-domain canonicalizer (mutable scratch, not shared across domains);
     None when the symmetry quotient is off or trivial *)
  canon : Sim.canonicalizer option;
}

let new_wstate ~classes () =
  { w_branches = 0;
    w_paths = 0;
    w_truncated = 0;
    w_configs = 0;
    w_expanded = 0;
    w_dedup = 0;
    w_sleep = 0;
    w_canon = 0;
    w_steals = 0;
    w_ns = 0;
    w_budget_hit = false;
    visited = Hashtbl.create 4096;
    canon = Option.map (fun classes -> Sim.canonicalizer ~classes) classes }

let domain_stats_of st =
  { d_branches = st.w_branches;
    d_expanded = st.w_expanded;
    d_configurations = st.w_configs;
    d_dedup_hits = st.w_dedup;
    d_sleep_skips = st.w_sleep;
    d_canon_hits = st.w_canon;
    d_steals = st.w_steals;
    d_seconds = float_of_int st.w_ns *. 1e-9 }

(* Branch verdicts in parallel mode. *)
type ('v, 'r) branch_result =
  | B_ok
  | B_cex of ('v, 'r) Sim.t * Schedule.action list * bool
  | B_aborted  (* cancelled because a lower-indexed branch already failed *)

let explore (type v r) ?(max_steps = 200) ?(max_paths = 1_000_000)
    ?(dedup = true) ?(reduction = true) ?(symmetry = true) ?(domains = 1)
    ~(supplier : (v, r) Schedule.supplier) ~calls_per_proc ?invariant
    ?leaf_check (cfg0 : (v, r) Sim.t) : (v, r) outcome =
  let n = Sim.n cfg0 in
  if Array.length calls_per_proc <> n then
    invalid_arg "Explore.explore: calls_per_proc size mismatch";
  let invariant = Option.value invariant ~default:(fun _ -> true) in
  let leaf_check = Option.value leaf_check ~default:(fun _ -> true) in
  let t_start = Obs.Clock.now_ns () in
  let progs = Schedule.programs supplier ~n in
  (* The symmetry quotient is a deduplication key, so it is inert without
     dedup; it is also skipped when detection finds only singleton classes
     (every process runs a distinct program). *)
  let classes =
    if dedup && symmetry then begin
      let cls = Schedule.symmetry_classes supplier ~n ~calls_per_proc in
      let nontrivial = ref false in
      Array.iteri (fun pid c -> if c <> pid then nontrivial := true) cls;
      if !nontrivial then Some cls else None
    end
    else None
  in
  let new_wstate () = new_wstate ~classes () in
  (* Sleep sets are bitmasks with one Step bit and one Invoke bit per
     process; fall back to the unreduced search when they don't fit. *)
  let reduction = reduction && (2 * n) + 1 < Sys.int_size in
  let action_bit = function
    | Schedule.Step pid -> 1 lsl pid
    | Schedule.Invoke pid -> 1 lsl (n + pid)
    | Schedule.Crash _ -> 0
  in
  let apply_action cfg = function
    | Schedule.Step pid -> Sim.step cfg pid
    | Schedule.Invoke pid -> Sim.invoke cfg ~pid ~program:progs.(pid)
    | Schedule.Crash pid -> Sim.crash cfg pid
  in
  let enabled_of cfg =
    (* [runnable], not [running]: a process blocked on an await guard has no
       enabled transition.  A leaf with a blocked process is a deadlock; it
       reaches the leaf check (which typically requires quiescence) rather
       than hanging the enumeration. *)
    List.map (fun pid -> Schedule.Step pid) (Sim.runnable cfg)
    @ List.filter_map
      (fun pid ->
         if Sim.calls cfg pid < calls_per_proc.(pid) then
           Some (Schedule.Invoke pid)
         else None)
      (Sim.idle cfg)
  in
  (* [sleep] keeps only the sleeping actions independent of [fp], the
     footprint of the action being taken. *)
  let filter_sleep cfg sleep fp =
    if sleep = 0 then 0
    else begin
      let m = ref 0 in
      for pid = 0 to n - 1 do
        if sleep land (1 lsl pid) <> 0 then
          if Schedule.independent (Schedule.footprint cfg (Schedule.Step pid)) fp
          then m := !m lor (1 lsl pid);
        if sleep land (1 lsl (n + pid)) <> 0 then
          if Schedule.independent Schedule.F_invoke fp then
            m := !m lor (1 lsl (n + pid))
      done;
      !m
    end
  in
  (* Maps a sleep mask (one Step bit and one Invoke bit per pid) through a
     canonical pid permutation, so masks recorded from different members of
     one orbit are compared in a common coordinate system. *)
  let map_mask perm m =
    if m = 0 then 0
    else begin
      let r = ref 0 in
      for pid = 0 to n - 1 do
        if m land (1 lsl pid) <> 0 then r := !r lor (1 lsl perm.(pid));
        if m land (1 lsl (n + pid)) <> 0 then
          r := !r lor (1 lsl (n + perm.(pid)))
      done;
      !r
    end
  in
  (* The dedup decision: [true] means the configuration must be expanded. *)
  let dedup_check st cfg ~remaining sleep =
    if not dedup then true
    else begin
      let raw = Sim.fingerprint cfg in
      (* Under the quotient the visited set is keyed by the orbit's
         canonical fingerprint and masks live in canonical coordinates;
         the search itself always continues from the concrete [cfg] with
         the concrete [sleep], so counterexamples replay verbatim. *)
      let key, cmask =
        match st.canon with
        | Some c ->
          let key = Sim.canonical_fingerprint c cfg in
          (key, map_mask (Sim.canonical_perm c) sleep)
        | None -> (raw, sleep)
      in
      match Hashtbl.find_opt st.visited key with
      | None ->
        Hashtbl.add st.visited key
          { e_raw = raw; e_frontier = [ (remaining, cmask) ] };
        true
      | Some entry ->
        if entry.e_raw <> raw then st.w_canon <- st.w_canon + 1;
        if
          List.exists
            (fun (b, sl) -> b >= remaining && sl land lnot cmask = 0)
            entry.e_frontier
        then begin
          st.w_dedup <- st.w_dedup + 1;
          false
        end
        else begin
          entry.e_frontier <-
            (remaining, cmask)
            :: List.filter
              (fun (b, sl) -> not (b <= remaining && cmask land lnot sl = 0))
              entry.e_frontier;
          true
        end
    end
  in
  (* The one per-node step, shared by the depth-first search and the
     breadth-first frontier expansion: count the visit, check the
     invariant, consult the visited set, then either run the leaf check,
     count a truncation, or hand each enabled action outside the sleep set
     to [child] (with the sleep mask the child inherits) until the path
     budget runs out.  [rev_sched] is the reversed action list from the
     root to [cfg].  [fail cfg rev_sched at_leaf] reports a failure; the
     DFS raises there, the frontier records it. *)
  let expand st ~fail ~child cfg depth sleep rev_sched =
    st.w_configs <- st.w_configs + 1;
    if Obs.Hooks.armed () then begin
      Obs.Hooks.observe ~name:"explore.depth" (float_of_int depth);
      if st.w_configs land 8191 = 0 then begin
        let d = string_of_int (Domain.self () :> int) in
        Obs.Hooks.counter
          ~name:("explore.configurations.d" ^ d)
          (float_of_int st.w_configs);
        if st.canon <> None then
          Obs.Hooks.counter
            ~name:("explore.canon_hits.d" ^ d)
            (float_of_int st.w_canon)
      end
    end;
    if not (invariant cfg) then fail cfg rev_sched false
    else if dedup_check st cfg ~remaining:(max_steps - depth) sleep then begin
      st.w_expanded <- st.w_expanded + 1;
      match enabled_of cfg with
      | [] ->
        if not (leaf_check cfg) then fail cfg rev_sched true
        else st.w_paths <- st.w_paths + 1
      | enabled ->
        if depth >= max_steps then
          (* truncated paths consume the same budget as complete ones,
             otherwise deep trees (wait loops) never terminate *)
          st.w_truncated <- st.w_truncated + 1
        else begin
          let rec iter sleep = function
            | [] -> ()
            | action :: rest ->
              let abit = action_bit action in
              if reduction && sleep land abit <> 0 then begin
                st.w_sleep <- st.w_sleep + 1;
                iter sleep rest
              end
              else if st.w_paths + st.w_truncated >= max_paths then
                st.w_budget_hit <- true
              else begin
                let child_sleep =
                  if reduction then
                    filter_sleep cfg sleep (Schedule.footprint cfg action)
                  else 0
                in
                child (apply_action cfg action) (depth + 1) child_sleep
                  (action :: rev_sched);
                (* the explored action joins the sleep set of its later
                   siblings: orders that merely commute it past an
                   independent action revisit the same trace *)
                iter (sleep lor abit) rest
              end
          in
          iter sleep enabled
        end
    end
  in
  (* Cooperative cancellation for parallel branches: the lowest branch index
     whose subtree contains a counterexample so far. *)
  let best_cex = Atomic.make max_int in
  let exception Aborted in
  (* Explores the subtree under [cfg] depth-first; the first counterexample
     in DFS order ends the branch, and so does a lower-indexed parallel
     branch's failure. *)
  let run_branch st ~branch_index cfg depth sleep rev_sched =
    let exception Found of (v, r) Sim.t * Schedule.action list * bool in
    let fail cfg rev_sched at_leaf =
      raise (Found (cfg, List.rev rev_sched, at_leaf))
    in
    let rec go cfg depth sleep rev_sched =
      if Atomic.get best_cex < branch_index then raise Aborted;
      expand st ~fail ~child:go cfg depth sleep rev_sched
    in
    match go cfg depth sleep rev_sched with
    | () -> B_ok
    | exception Found (cfg, schedule, at_leaf) ->
      let current = Atomic.get best_cex in
      if branch_index < current then
        ignore (Atomic.compare_and_set best_cex current branch_index);
      B_cex (cfg, schedule, at_leaf)
    | exception Aborted -> B_aborted
  in
  (* [workers] are the per-domain accounting states (one in sequential
     mode); [extra] holds root-level accounting outside any domain. *)
  let finish ~workers ~extra =
    let sts = extra @ Array.to_list workers in
    let sum f = List.fold_left (fun a st -> a + f st) 0 sts in
    let truncated = sum (fun st -> st.w_truncated) in
    Ok
      { paths = sum (fun st -> st.w_paths);
        truncated_paths = truncated;
        configurations = sum (fun st -> st.w_configs);
        expanded = sum (fun st -> st.w_expanded);
        dedup_hits = sum (fun st -> st.w_dedup);
        sleep_skips = sum (fun st -> st.w_sleep);
        canon_hits = sum (fun st -> st.w_canon);
        symmetric = classes <> None;
        exhaustive =
          truncated = 0 && not (List.exists (fun st -> st.w_budget_hit) sts);
        seconds = Obs.Clock.elapsed_s t_start;
        per_domain = Array.map domain_stats_of workers }
  in
  let run_timed_branch st ~branch_index cfg depth sleep rev_sched =
    st.w_branches <- st.w_branches + 1;
    let t0 = Obs.Clock.now_ns () in
    let result =
      if Obs.Hooks.armed () then
        Obs.Hooks.with_span
          ("explore.branch-" ^ string_of_int branch_index)
          (fun () -> run_branch st ~branch_index cfg depth sleep rev_sched)
      else run_branch st ~branch_index cfg depth sleep rev_sched
    in
    st.w_ns <- st.w_ns + (Obs.Clock.now_ns () - t0);
    result
  in
  if domains <= 1 then begin
    let st = new_wstate () in
    match run_timed_branch st ~branch_index:0 cfg0 0 0 [] with
    | B_ok -> finish ~workers:[| st |] ~extra:[]
    | B_cex (cfg, schedule, at_leaf) -> Counterexample { cfg; schedule; at_leaf }
    | B_aborted -> assert false
  end
  else begin
    (* Work-stealing frontier: the root region is expanded breadth-first —
       by the same per-node step as the DFS — until the queue holds about
       32 nodes per domain; those frontier nodes are then dealt round-robin
       into per-worker deques.  A worker drains its own deque front to back
       (ascending node index) and steals from the BACK of a victim's deque
       when it runs dry, so load balances at node granularity instead of
       the root's arity.  This matters for symmetric workloads: at the root
       only invokes are enabled and they are mutually independent, so
       root-level sleep sets prune all but the first root branch and a
       root split would leave one busy domain; a deeper frontier has no
       such skew.  Each node carries exactly the sleep mask sequential DFS
       would pass it, so the reduction is unchanged; counterexample
       reporting stays deterministic — expansion failures are found in
       (deterministic) breadth-first order before any worker starts, and
       among worker branches the lowest frontier index wins, with a node
       skipped only when a lower-indexed node already failed. *)
    let root_st = new_wstate () in
    let pending : ((v, r) Sim.t * int * int * Schedule.action list) Queue.t =
      Queue.create ()
    in
    Queue.add (cfg0, 0, 0, []) pending;
    let target = 32 * domains in
    let cex = ref None in
    let fail cfg rev_sched at_leaf =
      cex := Some (cfg, List.rev rev_sched, at_leaf)
    in
    let child cfg depth sleep rev_sched =
      Queue.add (cfg, depth, sleep, rev_sched) pending
    in
    while
      !cex = None && (not root_st.w_budget_hit)
      && Queue.length pending > 0
      && Queue.length pending < target
    do
      let cfg, depth, sleep, rev_sched = Queue.pop pending in
      expand root_st ~fail ~child cfg depth sleep rev_sched
    done;
    match !cex with
    | Some (cfg, schedule, at_leaf) -> Counterexample { cfg; schedule; at_leaf }
    | None ->
      let nodes = Array.init (Queue.length pending) (fun _ -> Queue.pop pending) in
      let nb = Array.length nodes in
      if nb = 0 then finish ~workers:[||] ~extra:[ root_st ]
      else begin
        let nd = max 1 (min domains nb) in
        let results = Array.make nb B_ok in
        let states = Array.init nd (fun _ -> new_wstate ()) in
        (* Per-worker deques of node indices, dealt round-robin.  A
           mutex-guarded list per deque is plenty here: one lock per node
           taken, and the node count is small (~32 per domain). *)
        let deque_lock = Array.init nd (fun _ -> Mutex.create ()) in
        let deques = Array.make nd [] in
        for i = nb - 1 downto 0 do
          let w = i mod nd in
          deques.(w) <- i :: deques.(w)
        done;
        let pop_own w =
          Mutex.lock deque_lock.(w);
          let r =
            match deques.(w) with
            | [] -> None
            | i :: tl ->
              deques.(w) <- tl;
              Some i
          in
          Mutex.unlock deque_lock.(w);
          r
        in
        let steal_from w =
          Mutex.lock deque_lock.(w);
          let r =
            let rec split acc = function
              | [] -> None
              | [ last ] ->
                deques.(w) <- List.rev acc;
                Some last
              | x :: tl -> split (x :: acc) tl
            in
            split [] deques.(w)
          in
          Mutex.unlock deque_lock.(w);
          r
        in
        let worker wid () =
          let st = states.(wid) in
          let take () =
            match pop_own wid with
            | Some i -> Some i
            | None ->
              let rec scan k =
                if k >= nd then None
                else
                  match steal_from ((wid + k) mod nd) with
                  | Some i ->
                    st.w_steals <- st.w_steals + 1;
                    Some i
                  | None -> scan (k + 1)
              in
              scan 1
          in
          let rec loop () =
            match take () with
            | None -> ()
            | Some i ->
              (if Atomic.get best_cex >= i then begin
                 let cfg, depth, sleep, rev_sched = nodes.(i) in
                 results.(i) <-
                   run_timed_branch st ~branch_index:i cfg depth sleep
                     rev_sched;
                 match results.(i) with
                 | B_ok -> ()
                 | B_cex _ | B_aborted -> Hashtbl.reset st.visited
               end);
              loop ()
          in
          loop ()
        in
        let doms =
          List.init (nd - 1) (fun wid -> Domain.spawn (worker (wid + 1)))
        in
        worker 0 ();
        List.iter Domain.join doms;
        let rec first_cex k =
          if k >= nb then None
          else
            match results.(k) with
            | B_cex (cfg, schedule, at_leaf) -> Some (cfg, schedule, at_leaf)
            | B_ok | B_aborted -> first_cex (k + 1)
        in
        match first_cex 0 with
        | Some (cfg, schedule, at_leaf) ->
          Counterexample { cfg; schedule; at_leaf }
        | None ->
          (* a node is skipped or aborted only after a lower-indexed node
             failed, so without a counterexample every node ran to the end *)
          finish ~workers:states ~extra:[ root_st ]
      end
  end
