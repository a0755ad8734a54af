(* Tests for the free-monad program representation. *)

open Shm.Prog.Syntax

(* A tiny interpreted language of programs over int registers, generated by
   qcheck, used to check the monad laws observationally. *)
let run_on regs p = Shm.Prog.run_pure ~regs:(Array.copy regs) p

let gen_prog =
  let open QCheck2.Gen in
  let leaf = oneof [ map (fun v -> `Ret v) small_int; map (fun r -> `Read (abs r mod 4)) small_int ] in
  let node = map2 (fun r v -> `Write (abs r mod 4, v)) small_int small_int in
  list_size (int_range 0 8) (oneof [ leaf; node ])

let build steps =
  List.fold_left
    (fun acc step ->
       let* total = acc in
       match step with
       | `Ret v -> Shm.Prog.return (total + v)
       | `Read r ->
         let+ v = Shm.Prog.read r in
         total + v
       | `Write (r, v) ->
         let* () = Shm.Prog.write r v in
         Shm.Prog.return total)
    (Shm.Prog.return 0) steps

let observed steps =
  let regs = [| 1; 2; 3; 4 |] in
  let result, ops = run_on regs (build steps) in
  (result, ops)

let monad_left_identity =
  Util.qtest "bind (return x) f = f x" QCheck2.Gen.small_int (fun x ->
      let f v = Shm.Prog.map (fun r -> r + v) (Shm.Prog.read 0) in
      let regs = [| 10 |] in
      run_on regs (Shm.Prog.bind (Shm.Prog.return x) f) = run_on regs (f x))

let monad_right_identity =
  Util.qtest "bind p return = p" gen_prog (fun steps ->
      let p = build steps in
      let regs = [| 1; 2; 3; 4 |] in
      run_on regs (Shm.Prog.bind p Shm.Prog.return) = run_on regs p)

let monad_assoc =
  Util.qtest "bind associativity" gen_prog (fun steps ->
      let p = build steps in
      let f v = Shm.Prog.map (fun r -> r + v) (Shm.Prog.read 1) in
      let g v = Shm.Prog.map (fun r -> r * v) (Shm.Prog.read 2) in
      let regs = [| 1; 2; 3; 4 |] in
      run_on regs (Shm.Prog.bind (Shm.Prog.bind p f) g)
      = run_on regs (Shm.Prog.bind p (fun x -> Shm.Prog.bind (f x) g)))

(* The two ways to fold over a register range: [fold_range] binds one
   read per element, [fold_reads] builds each read in place. *)
let range_folds ~lo ~hi ~init f =
  [ ( "fold_range",
      Shm.Prog.fold_range ~lo ~hi ~init (fun acc r ->
          let+ v = Shm.Prog.read r in
          f acc v) );
    ("fold_reads", Shm.Prog.fold_reads ~lo ~hi ~init f Shm.Prog.return) ]

let fold_range_sums () =
  List.iter
    (fun (name, p) ->
       let v, ops = run_on [| 1; 2; 3; 4; 5 |] p in
       Util.check_int (name ^ ": sum") 15 v;
       Util.check_int (name ^ ": ops") 5 ops)
    (range_folds ~lo:0 ~hi:4 ~init:0 ( + ))

let fold_range_empty () =
  List.iter
    (fun (name, p) ->
       let v, ops = run_on [| 0 |] p in
       Util.check_int (name ^ ": init returned") 99 v;
       Util.check_int (name ^ ": no ops") 0 ops)
    (range_folds ~lo:3 ~hi:2 ~init:99 (fun _ _ -> assert false))

let iter_range_writes () =
  let regs = [| 0; 0; 0 |] in
  let p = Shm.Prog.iter_range ~lo:0 ~hi:2 (fun r -> Shm.Prog.write r (r + 1)) in
  let (), _ = Shm.Prog.run_pure ~regs p in
  Alcotest.(check (list int)) "written" [ 1; 2; 3 ] (Array.to_list regs)

let map_reg_offsets () =
  let p = Shm.Prog.map_reg (fun r -> r + 2) (Shm.Prog.write 0 7) in
  let regs = [| 0; 0; 9 |] in
  let (), _ = Shm.Prog.run_pure ~regs p in
  Alcotest.(check (list int)) "offset write" [ 0; 0; 7 ] (Array.to_list regs)

type wrapped = W of int | Other

let embed_round_trips () =
  let p : (int, int) Shm.Prog.t =
    let* () = Shm.Prog.write 0 5 in
    Shm.Prog.read 0
  in
  let q =
    Shm.Prog.embed ~inj:(fun v -> W v)
      ~prj:(function W v -> v | Other -> assert false)
      p
  in
  let regs = [| Other |] in
  let v, ops = Shm.Prog.run_pure ~regs q in
  Util.check_int "read back" 5 v;
  Util.check_int "ops" 2 ops;
  Util.check_bool "register wrapped" true (regs.(0) = W 5)

let write_then_read =
  Util.qtest "write then read returns written value"
    QCheck2.Gen.(pair small_int (int_range 0 3))
    (fun (v, r) ->
       let p =
         let* () = Shm.Prog.write r v in
         Shm.Prog.read r
       in
       fst (run_on [| 0; 0; 0; 0 |] p) = v)

(* Test-local copies of the collect-based definitions that
   [Shm.Prog.fold_reads] replaced: a collect returned through binds, and
   Lamport/EFR as a collect followed by a fold over the view. *)
module Bound = struct
  let collect ~lo ~hi =
    let* rev_view =
      Shm.Prog.fold_range ~lo ~hi ~init:[] (fun acc r ->
          let+ v = Shm.Prog.read r in
          v :: acc)
    in
    Shm.Prog.return (Array.of_list (List.rev rev_view))

  let scan ?max_rounds ~equal ~lo ~hi () =
    let views_equal a b =
      Array.length a = Array.length b && Array.for_all2 equal a b
    in
    let rec loop rounds prev =
      (match max_rounds with
       | Some m when rounds >= m -> raise Snapshot.Collect.Starved
       | _ -> ());
      let* view = collect ~lo ~hi in
      match prev with
      | Some p when views_equal p view -> Shm.Prog.return view
      | _ -> loop (rounds + 1) (Some view)
    in
    loop 0 None

  let lamport ~n ~pid =
    let* view = collect ~lo:0 ~hi:(n - 1) in
    let t = 1 + Array.fold_left max 0 view in
    let* () = Shm.Prog.write pid t in
    Shm.Prog.return t

  let efr ~n ~pid ~call =
    let m = n - 1 in
    let* view = collect ~lo:0 ~hi:(m - 1) in
    let mx = Array.fold_left max 0 view in
    if pid < m then
      let t = mx + 1 in
      let* () = Shm.Prog.write pid t in
      Shm.Prog.return (Timestamp.Efr.Even t)
    else Shm.Prog.return (Timestamp.Efr.Odd (mx, call))
end

(* Runs [mk ()] solo on a copy of [regs], logging every operation.  An
   interferer seeded by [seed] overwrites a random register after each of
   the first 24 operations, so double-collect scans see movement and
   retry, then stops so that every scan terminates.  Returns the result
   ([None] for {!Snapshot.Collect.Starved}), the operation log and the
   final registers. *)
let run_interfered ~seed ~regs mk =
  let regs = Array.copy regs in
  let rng = Random.State.make [| seed |] in
  let log = ref [] in
  let interfere ops =
    if ops < 24 && Array.length regs > 0 then
      regs.(Random.State.int rng (Array.length regs)) <-
        Random.State.int rng 4
  in
  let rec go ops = function
    | Shm.Prog.Done x -> x
    | Shm.Prog.Read (r, k) ->
      log := `Read r :: !log;
      let v = regs.(r) in
      interfere ops;
      go (ops + 1) (k v)
    | Shm.Prog.Write (r, v, k) ->
      log := `Write (r, v) :: !log;
      regs.(r) <- v;
      interfere ops;
      go (ops + 1) (k ())
    | Shm.Prog.Swap _ | Shm.Prog.Rmw _ | Shm.Prog.Await _ ->
      Alcotest.fail "collect-based programs only read and write"
  in
  let result =
    match go 0 (mk ()) with
    | x -> Some x
    | exception Snapshot.Collect.Starved -> None
  in
  (result, List.rev !log, regs)

let fold_reads_programs_match_bound =
  Util.qtest ~count:200
    "fold_reads programs match their bind-built originals"
    QCheck2.Gen.(
      quad (int_range 1 6) (int_bound 5) (int_bound 3) (int_bound 100_000))
    (fun (n, pid, max_rounds, seed) ->
       let pid = pid mod n and lo = seed mod n and hi = (seed / n) mod n in
       let regs = Array.init n (fun i -> (seed lsr i) land 3) in
       let same mk_new mk_old =
         run_interfered ~seed ~regs mk_new = run_interfered ~seed ~regs mk_old
       in
       let max_rounds = if max_rounds = 0 then None else Some max_rounds in
       same
         (fun () -> Snapshot.Collect.collect ~lo ~hi)
         (fun () -> Bound.collect ~lo ~hi)
       && same
         (fun () ->
            Snapshot.Collect.scan ?max_rounds ~equal:Int.equal ~lo ~hi ())
         (fun () -> Bound.scan ?max_rounds ~equal:Int.equal ~lo ~hi ())
       && same
         (fun () -> Timestamp.Lamport.program ~n ~pid ~call:0)
         (fun () -> Bound.lamport ~n ~pid)
       && same
         (fun () -> Timestamp.Efr.program ~n ~pid ~call:seed)
         (fun () -> Bound.efr ~n ~pid ~call:seed))

let suite =
  ( "prog",
    [ monad_left_identity;
      monad_right_identity;
      monad_assoc;
      Util.case "fold_range sums reads" fold_range_sums;
      Util.case "fold_range empty range" fold_range_empty;
      Util.case "iter_range writes" iter_range_writes;
      Util.case "map_reg offsets registers" map_reg_offsets;
      Util.case "embed round-trips values" embed_round_trips;
      write_then_read;
      fold_reads_programs_match_bound ] )
