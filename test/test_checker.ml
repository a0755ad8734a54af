(* The checker itself must detect violations: feed it corrupted results. *)

(* An object whose getTS returns [stamps.(pid)] in one step, touching no
   register, so a case fixes the stamps and the compare of a real
   simulator configuration. *)
let fixed ~compare_ts stamps :
  (module Timestamp.Intf.S with type value = int and type result = int) =
  (module struct
    type value = int

    type result = int

    let name = "fixed"

    let kind = `One_shot

    let num_registers ~n:_ = 1

    let init_value ~n:_ = 0

    let program ~n:_ ~pid ~call:_ = Shm.Prog.return stamps.(pid)

    let compare_ts = compare_ts

    let order = `General

    let equal_ts = Int.equal

    let pp_ts = Format.pp_print_int
  end)

(* Processes [0 .. k-1] call getTS solo in pid order, so each call
   happens before the next, returning the [k] stamps of [stamps]; the
   processes of [pending], numbered from [k], are then invoked and left
   pending. *)
let run ?(compare_ts = fun (a : int) b -> a < b) ?(pending = []) stamps =
  let all = Array.of_list (stamps @ pending) in
  let n = Array.length all in
  let (module T) = fixed ~compare_ts all in
  let invoke cfg pid =
    Shm.Sim.invoke cfg ~pid ~program:(fun ~call -> T.program ~n ~pid ~call)
  in
  let solo cfg pid =
    match Shm.Sim.run_solo ~fuel:10 (invoke cfg pid) pid with
    | Some cfg -> cfg
    | None -> Alcotest.failf "p%d did not finish" pid
  in
  let k = List.length stamps in
  let cfg =
    List.fold_left solo
      (Shm.Sim.create ~n ~num_regs:1 ~init:0)
      (List.init k Fun.id)
  in
  let cfg = List.fold_left invoke cfg (List.init (n - k) (fun i -> k + i)) in
  Timestamp.Checker.check_sim (module T) cfg

let accepts_correct_results () =
  match run [ 1; 2 ] with
  | Ok pairs -> Util.check_int "one ordered pair" 1 pairs
  | Error _ -> Alcotest.fail "should accept"

let rejects_equal_timestamps () =
  match run [ 5; 5 ] with
  | Ok _ -> Alcotest.fail "should reject: hb pair with equal timestamps"
  | Error v ->
    Alcotest.(check string) "reason"
      "happens before, but compare(t1,t2)=false" v.reason

let rejects_inverted_timestamps () =
  Util.check_bool "inverted rejected" true (Result.is_error (run [ 9; 2 ]))

(* A pending call has no stamp, so the happens-before rule never reaches
   it: the pending call is invoked after both others respond, and the 0 it
   would return is below both their stamps. *)
let ignores_pending_operations () =
  match run ~pending:[ 0 ] [ 1; 2 ] with
  | Ok pairs -> Util.check_int "still one hb pair" 1 pairs
  | Error _ -> Alcotest.fail "pending op must not affect checking"

(* Nor does the symmetric rule: this compare is symmetric exactly between
   2 and 9, and only the pending call would return 9. *)
let symmetric_check_skips_pending () =
  match
    run ~compare_ts:(fun a b -> a < b || (a = 9 && b = 2)) ~pending:[ 9 ]
      [ 1; 2 ]
  with
  | Ok pairs -> Util.check_int "still one hb pair" 1 pairs
  | Error _ -> Alcotest.fail "pending op must not affect the symmetric rule"

let detects_reflexive_compare () =
  match run ~compare_ts:( <= ) [ 1; 2 ] with
  | Ok _ -> Alcotest.fail "reflexive compare must be flagged"
  | Error v ->
    Alcotest.(check string) "reason" "compare is not irreflexive at" v.reason

(* ---------------------------- check_timed ---------------------------- *)

let timed pid ~start ~stop ts : int Timestamp.Checker.timed =
  { td_pid = pid; td_call = 0; td_start = start; td_end = stop; td_ts = ts }

(* calls [i] at ticks [2i, 2i + 1]: each happens before the next *)
let sequential stamps =
  List.mapi (fun i ts -> timed i ~start:(2 * i) ~stop:((2 * i) + 1) ts) stamps

let run_timed ?(compare_ts = fun (a : int) b -> a < b) order records =
  Timestamp.Checker.check_timed ~order ~compare_ts ~pp:Format.pp_print_int
    records

(* Every check_timed case runs on every path: both sweeps and the scan. *)
let on_every_path f () =
  List.iter f [ `Strict_weak; `Strict_partial; `General ]

let timed_accepts_correct order =
  (* three sequential calls, one overlapping all of them, one after all *)
  match
    run_timed order
      (sequential [ 1; 2; 3 ]
       @ [ timed 3 ~start:1 ~stop:6 2; timed 4 ~start:7 ~stop:8 5 ])
  with
  | Ok pairs ->
    Util.check_int "three ordered pairs plus four into the last" 7 pairs
  | Error v ->
    Alcotest.failf "should accept: %a" Timestamp.Checker.pp_violation v

let timed_rejects_equal_and_inverted order =
  let reason records =
    match run_timed order records with
    | Ok _ -> Alcotest.fail "should reject a bad hb pair"
    | Error v -> v.reason
  in
  Alcotest.(check string) "equal stamps"
    "happens before, but compare(t1,t2)=false" (reason (sequential [ 5; 5 ]));
  Alcotest.(check string) "inverted stamps"
    "happens before, but compare(t1,t2)=false" (reason (sequential [ 9; 2 ]))

let timed_leaves_concurrent_unconstrained order =
  match
    run_timed order
      [ timed 0 ~start:0 ~stop:3 9; timed 1 ~start:1 ~stop:4 2;
        timed 2 ~start:3 ~stop:5 9 ]
  with
  | Ok pairs -> Util.check_int "no ordered pair" 0 pairs
  | Error _ -> Alcotest.fail "overlapping calls are unconstrained"

let timed_empty order =
  match run_timed order [] with
  | Ok pairs -> Util.check_int "no pairs" 0 pairs
  | Error _ -> Alcotest.fail "empty history is correct"

let timed_detects_reflexive_compare order =
  match run_timed ~compare_ts:( <= ) order (sequential [ 1; 2; 3 ]) with
  | Ok _ -> Alcotest.fail "reflexive compare must be flagged"
  | Error v ->
    Alcotest.(check string) "reason" "compare is not irreflexive at" v.reason

(* Symmetric compares must be flagged even on pairs that happens-before
   leaves unconstrained (concurrent calls). *)
let detects_symmetric_compare () =
  (* a "compare" that orders distinct values both ways but is
     irreflexive, on two overlapping calls *)
  match
    run_timed ~compare_ts:( <> ) `General
      [ timed 0 ~start:0 ~stop:2 1; timed 1 ~start:1 ~stop:3 2 ]
  with
  | Ok _ -> Alcotest.fail "symmetric compare must be flagged"
  | Error v ->
    Alcotest.(check string) "reason" "compare holds symmetrically between"
      v.reason

let shared_end = "shares its end tick with"

let start_after_end = "start tick exceeds end tick at"

(* A tick witness no counter hands out: two calls sharing an end tick,
   or a call that starts after it ends.  The stamps are otherwise
   correct, so each path must name the tick fault. *)
let timed_rejects_void_witness order =
  let reason records =
    match run_timed order records with
    | Ok _ -> Alcotest.fail "should reject a void tick witness"
    | Error v -> v.reason
  in
  Alcotest.(check string) "two calls end at tick 5" shared_end
    (reason
       [ timed 0 ~start:0 ~stop:5 1; timed 1 ~start:2 ~stop:5 2;
         timed 2 ~start:6 ~stop:7 3 ]);
  Alcotest.(check string) "a call runs from tick 5 to tick 2" start_after_end
    (reason [ timed 0 ~start:0 ~stop:1 1; timed 1 ~start:5 ~stop:2 2 ])

(* Differential property: on random interval histories both sweeps
   return the exhaustive scan's verdict and pair count.  Each call gets
   [dims] linearization points inside its interval and, for each, a rank
   by that point; [e1 < s2] forces [p1 < p2] at every point, so the
   ranks respect happens-before in every coordinate.  A third of the
   histories get one corrupted rank (shifted, duplicated from another
   call, or swapped with another call's), which may or may not break
   happens-before.  End ticks are distinct, as one counter hands them
   out (a shared one is a fault of its own, planted below).  The ticks
   [0 .. 100] then go through a random strictly increasing map, which
   keeps happens-before but moves them anywhere in the int range:
   negative, or spanning more than 2^62. *)
let gen_history ~dims =
  let open QCheck2.Gen in
  let* n = int_range 0 40 in
  let* ends = shuffle_l (List.init 101 Fun.id) in
  let* calls =
    flatten_l
      (List.map
         (fun stop ->
            let* len = int_bound 20 in
            let start = max 0 (stop - len) in
            let+ ps = list_repeat dims (int_bound (stop - start)) in
            (start, stop, List.map (fun p -> start + p) ps))
         (List.filteri (fun k _ -> k < n) ends))
  in
  let ranks d =
    let points = List.map (fun (_, _, ps) -> List.nth ps d) calls in
    let sorted = List.sort_uniq Int.compare points in
    Array.of_list
      (List.map
         (fun p -> List.length (List.filter (fun q -> q < p) sorted))
         points)
  in
  let ranks = Array.init dims ranks in
  let* fault = int_bound 8 in
  let* d = int_bound (dims - 1) in
  let* i = int_bound (max 0 (n - 1)) in
  let* j = int_bound (max 0 (n - 1)) in
  let* shift = oneofl [ -3; -2; -1; 1; 2; 3 ] in
  let+ base, step =
    oneof
      [ pair (int_range (-1000) 1000) (oneofl [ 1; 3 ]);
        pair (int_range (-(1 lsl 50)) (1 lsl 50)) (pure (1 lsl 40));
        map (fun o -> (min_int + o, max_int / 51)) (int_bound 1000) ]
  in
  let rank e k =
    let r = ranks.(e) in
    match fault with
    | 0 when e = d && k = i -> max 0 (r.(i) + shift)
    | 1 when e = d && k = i -> r.(j)
    | 2 when e = d && k = i -> r.(j)
    | 2 when e = d && k = j -> r.(i)
    | _ -> r.(k)
  in
  let tick t = base + (t * step) in
  List.mapi
    (fun k (start, stop, _) ->
       (tick start, tick stop, List.init dims (fun e -> rank e k)))
    calls

(* A strictly increasing chain of 44 stamps (ranks reach 39 + 3) drawn
   from [universe], whose values are pairwise distinct under
   [compare_ts]. *)
let gen_chain ~compare_ts universe =
  let cmp a b =
    if compare_ts a b then -1 else if compare_ts b a then 1 else 0
  in
  QCheck2.Gen.map
    (fun l ->
       Array.of_list (List.sort cmp (List.filteri (fun i _ -> i < 44) l)))
    (QCheck2.Gen.shuffle_l universe)

let paths_match_scan ~paths ~compare_ts ~pp stamped =
  let records =
    List.mapi
      (fun pid (start, stop, ts) ->
         { Timestamp.Checker.td_pid = pid; td_call = 0; td_start = start;
           td_end = stop; td_ts = ts })
      stamped
  in
  let run order =
    Timestamp.Checker.check_timed ~order ~compare_ts ~pp records
  in
  let scan = run `General in
  List.for_all
    (fun order ->
       match (run order, scan) with
       | Ok a, Ok b -> a = b
       | Error _, Error _ -> true
       | Ok _, Error _ | Error _, Ok _ -> false)
    paths

(* A strict weak order is a strict partial order too, so both sweeps
   apply. *)
let sweep_matches_scan ~name ~compare_ts ~pp universe =
  Util.qtest ~count:3000
    (name ^ ": strict-weak sweep agrees with the exhaustive scan, as does \
             the frontier")
    QCheck2.Gen.(pair (gen_history ~dims:1) (gen_chain ~compare_ts universe))
    (fun (history, chain) ->
       paths_match_scan ~paths:[ `Strict_weak; `Strict_partial ] ~compare_ts
         ~pp
         (List.map (fun (start, stop, r) -> (start, stop, chain.(List.hd r)))
            history))

(* Two linearizations make a two-dimensional dominance order: calls
   ordered by happens-before get dominating vectors, and concurrent calls
   the two points order differently get incomparable ones, so
   incomparability is not transitive. *)
let frontier_matches_scan =
  Util.qtest ~count:3000
    "vector: frontier agrees with the exhaustive scan"
    (gen_history ~dims:2)
    (fun history ->
       paths_match_scan ~paths:[ `Strict_partial ]
         ~compare_ts:Timestamp.Vector_ts.compare_ts
         ~pp:Timestamp.Vector_ts.pp_ts
         (List.map
            (fun (start, stop, r) -> (start, stop, Array.of_list r))
            history))

(* Planted tick faults in a random history: one call's start moved past
   its end, or one call given another's interval, so the two share an
   end tick.  Every path rejects both.  The start fault falls to the
   first pass, before any pair; the sweeps check end ticks before they
   sweep, while the scan may meet a corrupted rank first. *)
let void_witness_fails_every_path =
  Util.qtest ~count:1000
    "planted tick faults: a start past its end or a shared end tick fails \
     every path"
    QCheck2.Gen.(triple (gen_history ~dims:1) nat nat)
    (fun (history, a, b) ->
       let calls =
         Array.of_list
           (List.map (fun (start, stop, r) -> (start, stop, List.hd r)) history)
       in
       let n = Array.length calls in
       n < 2
       ||
       let i = a mod n in
       let j = (i + 1 + (b mod (n - 1))) mod n in
       let planted k call =
         Array.to_list
           (Array.mapi
              (fun pid c ->
                 let start, stop, ts = if pid = k then call else c in
                 timed pid ~start ~stop ts)
              calls)
       in
       let reason order records =
         match run_timed order records with
         | Ok _ -> None
         | Error v -> Some v.reason
       in
       let si, ei, ri = calls.(i) in
       let _, _, rj = calls.(j) in
       let inverted = planted i (ei + 1, si, ri) in
       let shared = planted j (si, ei, rj) in
       List.for_all
         (fun order -> reason order inverted = Some start_after_end)
         [ `Strict_weak; `Strict_partial; `General ]
       && List.for_all
         (fun order -> reason order shared = Some shared_end)
         [ `Strict_weak; `Strict_partial ]
       && reason `General shared <> None)

(* Differential property on real implementations: on random staggered
   simulator runs, [check_sim]'s scan and [check_calls] on the
   implementation's declared order, over the same intervals, return the
   same verdict and pair count.  A third of the runs swap the stamps of
   two calls ordered by happens-before, which both paths must reject. *)
let sim_matches_declared (Timestamp.Registry.Impl (module T)) =
  let module H = Timestamp.Harness.Make (T) in
  Util.qtest ~count:200
    (T.name ^ ": check_sim's scan agrees with the declared order's path")
    QCheck2.Gen.(
      quad (oneofl [ 2; 3; 5; 8 ]) (oneofl [ 0.02; 0.05; 0.1 ]) nat
        (pair (int_bound 2) nat))
    (fun (n, invoke_prob, seed, (fault, k)) ->
       let cfg = H.run_random ~invoke_prob ~n ~seed () in
       let hist = Shm.Sim.hist cfg in
       let calls =
         Array.of_list
           (List.map
              (fun ((op : Shm.History.op), td_ts) ->
                 match Shm.History.interval hist op with
                 | Some (td_start, Some td_end) ->
                   { Timestamp.Checker.td_pid = op.pid; td_call = op.call;
                     td_start; td_end; td_ts }
                 | _ -> assert false)
              (Shm.Sim.results cfg))
       in
       let check order calls =
         Timestamp.Checker.check_timed ~order ~compare_ts:T.compare_ts
           ~pp:T.pp_ts (Array.to_list calls)
       in
       let index = List.init (Array.length calls) Fun.id in
       let ordered =
         List.concat_map
           (fun i ->
              List.filter_map
                (fun j ->
                   if calls.(i).td_end < calls.(j).td_start then Some (i, j)
                   else None)
                index)
           index
       in
       match (fault, ordered) with
       | 0, _ :: _ ->
         let i, j = List.nth ordered (k mod List.length ordered) in
         let swapped = Array.copy calls in
         swapped.(i) <- { calls.(i) with td_ts = calls.(j).td_ts };
         swapped.(j) <- { calls.(j) with td_ts = calls.(i).td_ts };
         Result.is_error (check `General swapped)
         && Result.is_error (check T.order swapped)
       | _ -> (
         match
           (Timestamp.Checker.check_sim (module T) cfg, check T.order calls)
         with
         | Ok a, Ok b -> a = b
         | Error _, Error _ -> true
         | Ok _, Error _ | Error _, Ok _ -> false))

let differential =
  let range n = List.init n Fun.id in
  let open Timestamp in
  [ sweep_matches_scan ~name:"lamport" ~compare_ts:Lamport.compare_ts
      ~pp:Lamport.pp_ts (range 200);
    sweep_matches_scan ~name:"sqrt" ~compare_ts:Sqrt.compare_ts
      ~pp:Sqrt.pp_ts
      (List.concat_map (fun rnd -> List.map (fun t -> (rnd, t)) (range 15))
         (range 15));
    sweep_matches_scan ~name:"efr" ~compare_ts:Efr.compare_ts ~pp:Efr.pp_ts
      (List.concat_map
         (fun m -> Efr.Even m :: List.map (fun c -> Efr.Odd (m, c)) (range 5))
         (range 30));
    frontier_matches_scan;
    void_witness_fails_every_path ]
  @ List.map sim_matches_declared Timestamp.Registry.all

let suite =
  ( "checker",
    [ Util.case "accepts correct results" accepts_correct_results;
      Util.case "rejects equal timestamps on hb pair" rejects_equal_timestamps;
      Util.case "rejects inverted timestamps" rejects_inverted_timestamps;
      Util.case "ignores pending operations" ignores_pending_operations;
      Util.case "symmetric rule skips pending" symmetric_check_skips_pending;
      Util.case "detects reflexive compare" detects_reflexive_compare;
      Util.case "detects symmetric compare" detects_symmetric_compare;
      Util.case "timed: accepts a correct history"
        (on_every_path timed_accepts_correct);
      Util.case "timed: rejects equal and inverted stamps on an hb pair"
        (on_every_path timed_rejects_equal_and_inverted);
      Util.case "timed: overlapping calls are unconstrained"
        (on_every_path timed_leaves_concurrent_unconstrained);
      Util.case "timed: empty history" (on_every_path timed_empty);
      Util.case "timed: detects reflexive compare"
        (on_every_path timed_detects_reflexive_compare);
      Util.case "timed: rejects a shared end tick and a start past its end"
        (on_every_path timed_rejects_void_witness) ]
    @ differential )
