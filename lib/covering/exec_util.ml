(** Replay helpers shared by the covering-argument adversaries.

    Adversary constructions manipulate {e schedules} (action lists) rather
    than configurations, because the proofs repeatedly re-execute the same
    schedule from different configurations and truncate schedules "at the
    earliest point such that ...".  All helpers are purely functional over
    simulator configurations. *)

type ('v, 'r) supplier = ('v, 'r) Shm.Schedule.supplier

let apply = Shm.Schedule.apply

let apply1 = Shm.Schedule.apply_action

(* Runs every process with a pending operation to completion, in pid order;
   the result is quiescent.  [None] when fuel is exhausted. *)
let finish_all ~fuel (_supplier : _ supplier) cfg =
  let rec go fuel cfg rev_acts pids =
    match pids with
    | [] ->
      if Shm.Sim.running cfg = [] then Some (cfg, List.rev rev_acts)
      else go fuel cfg rev_acts (Shm.Sim.running cfg)
    | pid :: rest -> (
        match Shm.Sim.poised cfg pid with
        | Shm.Sim.P_idle | Shm.Sim.P_crashed -> go fuel cfg rev_acts rest
        | _ ->
          if fuel = 0 then None
          else
            go (fuel - 1) (Shm.Sim.step cfg pid)
              (Shm.Schedule.Step pid :: rev_acts)
              pids)
  in
  go fuel cfg [] (Shm.Sim.running cfg)

(* Checkpointed replay: the adversary constructions re-execute the same
   schedule from the same base configuration over and over, each time with a
   slightly different action list (a truncation, or the old list plus a solo
   suffix).  Because configurations are immutable, keeping every
   intermediate configuration of the last replay is free — a new replay
   only simulates past the longest common prefix. *)
module Cache = struct
  type ('v, 'r) t = {
    supplier : ('v, 'r) supplier;
    mutable acts : Shm.Schedule.action array;  (* cached actions, 0..len-1 *)
    mutable cfgs : ('v, 'r) Shm.Sim.t array;
        (* cfgs.(i) = base after i cached actions; length = length acts + 1 *)
    mutable len : int;
    mutable reused : int;
    mutable replayed : int;
  }

  let create supplier ~base =
    { supplier;
      acts = Array.make 16 (Shm.Schedule.Step 0);
      cfgs = Array.make 17 base;
      len = 0;
      reused = 0;
      replayed = 0 }

  let base t = t.cfgs.(0)

  let grow t =
    if t.len >= Array.length t.acts then begin
      let cap = 2 * Array.length t.acts in
      let acts = Array.make cap (Shm.Schedule.Step 0) in
      let cfgs = Array.make (cap + 1) (base t) in
      Array.blit t.acts 0 acts 0 t.len;
      Array.blit t.cfgs 0 cfgs 0 (t.len + 1);
      t.acts <- acts;
      t.cfgs <- cfgs
    end

  let push t a cfg =
    grow t;
    t.acts.(t.len) <- a;
    t.cfgs.(t.len + 1) <- cfg;
    t.len <- t.len + 1

  (* Aligns the cache with [actions]: checkpoints up to the longest common
     prefix are kept, the rest is re-simulated.  Returns the action count,
     so [cfg_at t (ensure t actions)] is the final configuration. *)
  let ensure t actions =
    let rec lcp i = function
      | a :: rest when i < t.len && t.acts.(i) = a -> lcp (i + 1) rest
      | rest -> (i, rest)
    in
    let k, rest = lcp 0 actions in
    t.reused <- t.reused + k;
    t.len <- k;
    List.iter
      (fun a ->
         t.replayed <- t.replayed + 1;
         push t a (apply1 t.supplier t.cfgs.(t.len) a))
      rest;
    t.len

  let cfg_at t i =
    if i < 0 || i > t.len then invalid_arg "Exec_util.Cache.cfg_at";
    t.cfgs.(i)

  let apply t actions = cfg_at t (ensure t actions)

  let stats t = (t.reused, t.replayed)
end

(* Invoke (if idle) and run [pid] solo to completion from the configuration
   after [prefix]; returns the final configuration and the solo actions,
   which stay in the cache as checkpoints. *)
let solo_complete ~fuel (t : _ Cache.t) ~prefix ~pid =
  let n = Cache.ensure t prefix in
  let cfg = Cache.cfg_at t n in
  let cfg =
    match Shm.Sim.poised cfg pid with
    | Shm.Sim.P_idle ->
      let cfg =
        Shm.Sim.invoke cfg ~pid ~program:(fun ~call -> t.Cache.supplier ~pid ~call)
      in
      Cache.push t (Shm.Schedule.Invoke pid) cfg;
      cfg
    | _ -> cfg
  in
  let rec go fuel cfg =
    match Shm.Sim.poised cfg pid with
    | Shm.Sim.P_idle -> Some cfg
    | Shm.Sim.P_crashed -> invalid_arg "Exec_util.solo_complete: crashed"
    | _ ->
      if fuel = 0 then None
      else begin
        let cfg = Shm.Sim.step cfg pid in
        Cache.push t (Shm.Schedule.Step pid) cfg;
        go (fuel - 1) cfg
      end
  in
  match go fuel cfg with
  | None -> None
  | Some final ->
    let rec acts i tail = if i < n then tail else acts (i - 1) (t.Cache.acts.(i) :: tail) in
    Some (final, acts (t.Cache.len - 1) [])

(* True when some executed write or swap step of [actions] (from the
   cache's base) hits a register satisfying [outside]. *)
let wrote_outside (t : _ Cache.t) actions ~outside =
  ignore (Cache.ensure t actions);
  let rec go i = function
    | [] -> false
    | Shm.Schedule.Step pid :: rest -> (
        match Shm.Sim.poised (Cache.cfg_at t i) pid with
        | Shm.Sim.P_write (r, _) | Shm.Sim.P_swap (r, _) when outside r -> true
        | _ -> go (i + 1) rest)
    | _ :: rest -> go (i + 1) rest
  in
  go 0 actions

(* Shortest prefix of [actions] after which [pid] covers a register
   satisfying [outside]; [None] if no prefix does. *)
let truncate_at_cover_outside (t : _ Cache.t) actions ~pid ~outside =
  ignore (Cache.ensure t actions);
  let covering i =
    match Shm.Sim.covers (Cache.cfg_at t i) pid with
    | Some r -> outside r
    | None -> false
  in
  let rec go i rev_prefix actions =
    if covering i then Some (List.rev rev_prefix)
    else
      match actions with
      | [] -> None
      | a :: rest -> go (i + 1) (a :: rev_prefix) rest
  in
  go 0 [] actions

(* Exact memo over replay-derived facts: deterministic replay means a fact
   about (base configuration, action list) can be cached under the base's
   fingerprint plus the literal action list.  The fingerprint component has
   the same collision budget as exploration dedup (62-bit); the action list
   is compared structurally, so distinct schedules never share an entry. *)
module Fp_memo = struct
  type 'a t = {
    tbl : (int * Shm.Schedule.action list, 'a) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create () = { tbl = Hashtbl.create 32; hits = 0; misses = 0 }

  let memo t cfg actions f =
    let key = (Shm.Sim.fingerprint cfg, actions) in
    match Hashtbl.find_opt t.tbl key with
    | Some v ->
      t.hits <- t.hits + 1;
      v
    | None ->
      t.misses <- t.misses + 1;
      let v = f () in
      Hashtbl.add t.tbl key v;
      v

  let stats t = (t.hits, t.misses)
end

(* The paper's block write pi_P as an action list (each listed process takes
   exactly one step; the precondition that each is poised to write is
   checked at replay time by {!Shm.Sim.block_write} semantics). *)
let block_actions pids = List.map (fun p -> Shm.Schedule.Step p) pids

let assert_block cfg pids =
  List.iter
    (fun pid ->
       match Shm.Sim.poised cfg pid with
       | Shm.Sim.P_write _ | Shm.Sim.P_swap _ -> ()
       | _ -> invalid_arg "Exec_util.assert_block: process not poised to write")
    pids
