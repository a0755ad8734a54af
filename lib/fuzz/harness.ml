type stats = {
  iterations : int;
  actions : int;
  hb_pairs : int;
  exhaustive : bool;
}

type failure = {
  impl : string;
  iteration : int;
  violation : string;
  original_len : int;
  repro : Repro.t;
  shrink_accepted : int;
  shrink_attempts : int;
}

type outcome = Passed of stats | Failed of failure

(* Per-implementation view of one replayed schedule, monomorphized so that
   digests of different implementations can be compared side by side. *)
type digest = {
  d_name : string;
  d_completed : Shm.History.op list;  (* sorted by (pid, call) *)
  d_hb : Shm.History.op -> Shm.History.op -> bool;
  d_fwd : Shm.History.op -> Shm.History.op -> bool;
      (* compare_ts t1 t2 for the pair's results *)
}

let digest (Timestamp.Registry.Impl (module T)) ~n actions =
  let cfg, _stats = Replay.run (module T) ~n actions in
  let results = Shm.Sim.results cfg in
  let hist = Shm.Sim.hist cfg in
  let completed =
    results
    |> List.filter_map (fun ((op : Shm.History.op), _) ->
        match Shm.History.interval hist op with
        | Some (_, Some _) -> Some op
        | _ -> None)
    |> List.sort compare
  in
  let ts op = List.assoc_opt op results in
  let check = Timestamp.Checker.check_sim (module T) cfg in
  ( { d_name = T.name;
      d_completed = completed;
      d_hb = (fun o1 o2 -> Shm.History.happens_before hist o1 o2);
      d_fwd =
        (fun o1 o2 ->
           match ts o1, ts o2 with
           | Some t1, Some t2 -> T.compare_ts t1 t2
           | _ -> false) },
    check )

let pp_ops ops =
  String.concat ", "
    (List.map
       (fun (op : Shm.History.op) -> Printf.sprintf "p%d.%d" op.pid op.call)
       ops)

(* Cross-implementation agreement over two digests of the same schedule. *)
let agreement ~crash_free a b =
  if crash_free && a.d_completed <> b.d_completed then
    Some
      (Printf.sprintf
         "completed calls differ on the same schedule: %s -> {%s} but %s -> \
          {%s}"
         a.d_name (pp_ops a.d_completed) b.d_name (pp_ops b.d_completed))
  else begin
    let shared =
      List.filter (fun op -> List.mem op b.d_completed) a.d_completed
    in
    let bad = ref None in
    List.iter
      (fun o1 ->
         List.iter
           (fun o2 ->
              if
                !bad = None && o1 <> o2 && a.d_hb o1 o2 && b.d_hb o1 o2
                && not (a.d_fwd o1 o2 && b.d_fwd o1 o2)
              then
                bad :=
                  Some
                    (Printf.sprintf
                       "p%d.%d happens before p%d.%d in both histories, but \
                        compare disagrees (%s: %b, %s: %b)"
                       o1.Shm.History.pid o1.call o2.Shm.History.pid o2.call
                       a.d_name (a.d_fwd o1 o2) b.d_name (b.d_fwd o1 o2)))
           shared)
      shared;
    !bad
  end

let crash_free actions =
  List.for_all
    (fun (a : Shm.Schedule.action) ->
       match a with Crash _ -> false | _ -> true)
    actions

(* Mixing one-shot and long-lived implementations replays different call
   counts per process, so completed-set equality only holds within a kind
   or when the schedule invokes each process at most once. *)
let comparable_completed impls actions =
  crash_free actions
  && (List.for_all
        (fun i -> Timestamp.Registry.kind i = `One_shot)
        impls
      || List.for_all
        (fun i -> Timestamp.Registry.kind i = `Long_lived)
        impls
      ||
      let invokes = Hashtbl.create 8 in
      List.for_all
        (fun (a : Shm.Schedule.action) ->
           match a with
           | Invoke p ->
             let c = Option.value (Hashtbl.find_opt invokes p) ~default:0 in
             Hashtbl.replace invokes p (c + 1);
             c = 0
           | _ -> true)
        actions)

let check_schedule ~impls ~n actions =
  let digests_and_checks = List.map (fun i -> digest i ~n actions) impls in
  let exception Found of string * string in
  try
    let pairs = ref 0 in
    List.iter
      (fun (d, check) ->
         match check with
         | Result.Ok p -> pairs := !pairs + p
         | Result.Error v ->
           raise
             (Found
                ( d.d_name,
                  Format.asprintf "%a" Timestamp.Checker.pp_violation v )))
      digests_and_checks;
    let digests = List.map fst digests_and_checks in
    let completed_comparable = comparable_completed impls actions in
    let rec cross = function
      | [] -> ()
      | d :: rest ->
        List.iter
          (fun d' ->
             match agreement ~crash_free:completed_comparable d d' with
             | Some msg -> raise (Found ("differential", msg))
             | None -> ())
          rest;
        cross rest
    in
    cross digests;
    Result.Ok !pairs
  with Found (impl, msg) -> Result.Error (impl, msg)

let resolve_impl name =
  match Timestamp.Registry.find name with
  | Some i -> Some i
  | None -> Mutant.find name

let replay_repro (r : Repro.t) =
  match resolve_impl r.impl with
  | None -> Error (Printf.sprintf "unknown implementation %S" r.impl)
  | Some impl -> (
      match check_schedule ~impls:[ impl ] ~n:r.n r.schedule with
      | Result.Ok _ -> Ok None
      | Result.Error (_, msg) -> Ok (Some msg))

(* Minimize a failing schedule and package the result. *)
let shrink_failure ~impls ~n ~seed ~iteration actions (impl0, msg0) =
  Obs.Hooks.with_span "fuzz.shrink" @@ fun () ->
  let oracle ~n candidate =
    match check_schedule ~impls ~n candidate with
    | Result.Ok _ -> None
    | Result.Error witness -> Some witness
  in
  let min_n, schedule, (impl, violation), accepted, attempts =
    match Shrink.minimize ~oracle ~n actions with
    | Some m -> (m.n, m.schedule, m.witness, m.accepted, m.attempts)
    | None ->
      (* the violation did not reproduce on re-execution; report the
         original schedule unminimized (should not happen: replay is
         deterministic) *)
      (n, actions, (impl0, msg0), 0, 0)
  in
  if Obs.Hooks.armed () then begin
    Obs.Hooks.counter ~name:"fuzz.violations" 1.;
    Obs.Hooks.observe ~name:"fuzz.shrink.accepted" (float_of_int accepted);
    Obs.Hooks.observe ~name:"fuzz.shrink.attempts" (float_of_int attempts)
  end;
  { impl;
    iteration;
    violation;
    original_len = List.length actions;
    repro =
      { impl;
        n = min_n;
        seed = Some seed;
        iteration = Some iteration;
        schedule };
    shrink_accepted = accepted;
    shrink_attempts = attempts }

(* Exhaustive fallback: enumerate every schedule of each implementation
   with the checker as the leaf invariant. *)
let explore_all ~impls ~n ~calls ~seed =
  let exception Found of failure in
  try
    List.iter
      (fun (Timestamp.Registry.Impl (module T) as impl) ->
         let module H = Timestamp.Harness.Make (T) in
         let calls = match T.kind with `One_shot -> 1 | `Long_lived -> calls in
         match
           Shm.Explore.explore ~supplier:(H.supplier ~n)
             ~calls_per_proc:(Array.make n calls)
             ~leaf_check:(fun cfg ->
                 Result.is_ok (Timestamp.Checker.check_sim (module T) cfg))
             (H.create ~n)
         with
         | Shm.Explore.Ok _ -> ()
         | Shm.Explore.Counterexample { schedule; _ } ->
           let witness =
             match check_schedule ~impls:[ impl ] ~n schedule with
             | Result.Error w -> w
             | Result.Ok _ -> (T.name, "explorer counterexample")
           in
           raise
             (Found
                (shrink_failure ~impls:[ impl ] ~n ~seed ~iteration:0 schedule
                   witness)))
      impls;
    None
  with Found f -> Some f

let run ?(iters = 1000) ?(n = 4) ?(calls = 2) ?(max_crashes = 0) ?(burst = 4)
    ?(explore_fallback = true) ~seed ~impls () =
  if impls = [] then invalid_arg "Fuzz.Harness.run: no implementations";
  if n <= 0 then invalid_arg "Fuzz.Harness.run: n must be positive";
  Obs.Hooks.with_span "fuzz" @@ fun () ->
  if explore_fallback && max_crashes = 0 && n * calls <= 4 then
    match explore_all ~impls ~n ~calls ~seed with
    | Some f -> Failed f
    | None ->
      Passed { iterations = 0; actions = 0; hb_pairs = 0; exhaustive = true }
  else begin
    let cfg = Gen.default ~calls ~max_crashes ~burst ~n () in
    let rand = Random.State.make [| seed |] in
    let actions_total = ref 0 in
    let hb_pairs = ref 0 in
    let result = ref None in
    let i = ref 0 in
    while Option.is_none !result && !i < iters do
      let actions = Gen.schedule cfg rand in
      actions_total := !actions_total + List.length actions;
      if Obs.Hooks.armed () then begin
        Obs.Hooks.counter ~name:"fuzz.iterations" (float_of_int (!i + 1));
        Obs.Hooks.observe ~name:"fuzz.schedule_len"
          (float_of_int (List.length actions))
      end;
      (match check_schedule ~impls ~n actions with
       | Result.Ok pairs -> hb_pairs := !hb_pairs + pairs
       | Result.Error witness ->
         result :=
           Some
             (Failed
                (shrink_failure ~impls ~n ~seed ~iteration:!i actions witness)));
      incr i
    done;
    match !result with
    | Some outcome -> outcome
    | None ->
      Passed
        { iterations = iters;
          actions = !actions_total;
          hb_pairs = !hb_pairs;
          exhaustive = false }
  end
