(* Generic properties every timestamp implementation must satisfy, checked
   over the whole registry (paper Section 2 specification). *)

let prop_compare_consistent (impl : Timestamp.Registry.impl) =
  let name = Printf.sprintf "%s: hb implies compare" (Util.impl_name impl) in
  Util.qtest ~count:40 name
    QCheck2.Gen.(pair (int_range 2 24) (int_bound 100_000))
    (fun (n, seed) ->
       let r =
         Timestamp.Registry.(
           probe impl ~n ~seed
             (Workload.Staggered { invoke_prob = 0.05; calls = 3 }))
       in
       r.Timestamp.Registry.hb_pairs >= 0)

let prop_space_within_bound (impl : Timestamp.Registry.impl) =
  let name = Printf.sprintf "%s: space within provisioned" (Util.impl_name impl) in
  Util.qtest ~count:40 name
    QCheck2.Gen.(pair (int_range 1 32) (int_bound 100_000))
    (fun (n, seed) ->
       let r =
         Timestamp.Registry.(
           probe impl ~n ~seed (Workload.Random { calls = 2 }))
       in
       r.Timestamp.Registry.regs_written <= r.Timestamp.Registry.regs_provisioned
       && r.Timestamp.Registry.regs_touched
          <= r.Timestamp.Registry.regs_provisioned)

let prop_waves (impl : Timestamp.Registry.impl) =
  let name = Printf.sprintf "%s: wave workloads check" (Util.impl_name impl) in
  Util.qtest ~count:25 name
    QCheck2.Gen.(pair (int_range 2 20) (int_bound 100_000))
    (fun (n, seed) ->
       let r =
         Timestamp.Registry.(
           probe impl ~n ~seed (Workload.Wave { wave_size = 2 }))
       in
       (* later waves happen after earlier ones: with w waves there are at
          least as many hb pairs as cross-wave pairs of completed calls *)
       r.Timestamp.Registry.hb_pairs > 0 || n <= 2)

let sequential_strictly_increasing (impl : Timestamp.Registry.impl) () =
  let (Timestamp.Registry.Impl (module T)) = impl in
  let module H = Timestamp.Harness.Make (T) in
  List.iter
    (fun n ->
       let _, ts = H.run_sequential ~n in
       let rec pairs = function
         | a :: (b :: _ as rest) ->
           Util.check_bool
             (Printf.sprintf "%s n=%d compare(t_i,t_i+1)" T.name n)
             true (T.compare_ts a b);
           Util.check_bool
             (Printf.sprintf "%s n=%d not compare(t_i+1,t_i)" T.name n)
             false (T.compare_ts b a);
           pairs rest
         | _ -> ()
       in
       pairs ts)
    [ 1; 2; 3; 7; 16; 31 ]

let crash_tolerance (impl : Timestamp.Registry.impl) () =
  (* wait-free implementations must keep working when processes die; the
     fuzz harness also shrinks any counterexample before reporting it *)
  List.iter
    (fun seed ->
       match
         Fuzz.Harness.run ~iters:40 ~n:12 ~calls:2 ~max_crashes:3 ~seed
           ~explore_fallback:false ~impls:[ impl ] ()
       with
       | Fuzz.Harness.Passed _ -> ()
       | Fuzz.Harness.Failed f ->
         Alcotest.fail
           (Printf.sprintf "%s seed %d: %s\nrepro: %s" f.impl seed f.violation
              (Fuzz.Repro.to_ocaml f.repro)))
    Util.seeds

let compare_irreflexive (impl : Timestamp.Registry.impl) () =
  let (Timestamp.Registry.Impl (module T)) = impl in
  let module H = Timestamp.Harness.Make (T) in
  let _, ts = H.run_sequential ~n:8 in
  List.iter
    (fun t ->
       Util.check_bool (T.name ^ ": irreflexive") false (T.compare_ts t t))
    ts

(* A declaration must hold on real stamps: a sequential run's plus a
   random concurrent run's, at most 40, over all triples.  Both
   [`Strict_weak] and [`Strict_partial] claim irreflexivity and
   transitivity; [`Strict_weak] also claims transitive incomparability. *)
let declared_order_holds (impl : Timestamp.Registry.impl) () =
  let (Timestamp.Registry.Impl (module T)) = impl in
  let weak = T.order = `Strict_weak in
  let module H = Timestamp.Harness.Make (T) in
  let n = 20 in
  let _, seq = H.run_sequential ~n in
  let conc = List.map snd (Shm.Sim.results (H.run_random ~n ~seed:3 ())) in
  let ts = List.filteri (fun i _ -> i < 40) (seq @ conc) in
  let lt = T.compare_ts in
  let inc a b = (not (lt a b)) && not (lt b a) in
  let fail what a b c =
    Alcotest.failf "%s: %s at %a, %a, %a" T.name what T.pp_ts a T.pp_ts b
      T.pp_ts c
  in
  List.iter
    (fun a ->
       if lt a a then fail "not irreflexive" a a a;
       List.iter
         (fun b ->
            List.iter
              (fun c ->
                 if lt a b && lt b c && not (lt a c) then
                   fail "not transitive" a b c;
                 if weak && inc a b && inc b c && not (inc a c) then
                   fail "incomparability not transitive" a b c)
              ts)
         ts)
    ts

(* Why vector timestamps declare a strict partial order, not a strict
   weak one: dominance's incomparability is not transitive. *)
let vector_is_not_strict_weak () =
  let lt = Timestamp.Vector_ts.compare_ts in
  let inc a b = (not (lt a b)) && not (lt b a) in
  let a = [| 1; 0 |] and b = [| 0; 1 |] and c = [| 2; 0 |] in
  Util.check_bool "[1,0] ~ [0,1]" true (inc a b);
  Util.check_bool "[0,1] ~ [2,0]" true (inc b c);
  Util.check_bool "[1,0] < [2,0]" true (lt a c);
  Util.check_bool "declared strict partial" true
    (Timestamp.Vector_ts.order = `Strict_partial)

(* The checker's frontier compares every call with each maximal one, so
   dominance must cost no allocation: one int loop over the components,
   shared by vector and snapshot stamps. *)
let vector_compare_allocates_nothing () =
  let lt = Timestamp.Vector_ts.compare_ts in
  let vs = [| [| 1; 2; 3; 4 |]; [| 1; 2; 3; 5 |]; [| 0; 9; 3; 4 |] |] in
  let hits = ref 0 in
  let run () =
    for i = 1 to 100_000 do
      if lt vs.(i mod 3) vs.((i + 1) mod 3) then incr hits
    done
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. w0 in
  Util.check_bool
    (Printf.sprintf "100k compares allocated %.0f minor words" words)
    true (words < 64.);
  Util.check_bool "snapshot stamps share the compare" true
    (Timestamp.Snapshot_ts.compare_ts == lt);
  Util.check_bool "early exit still sees the whole vector" true
    ((not (lt [| 0; 5 |] [| 1; 4 |])) && lt [| 1; 4 |] [| 1; 5 |]
     && not (lt [| 2; 2 |] [| 2; 2 |]))

let one_shot_rejects_second_call () =
  List.iter
    (fun (Timestamp.Registry.Impl (module T)) ->
       if T.kind = `One_shot then
         Util.check_bool (T.name ^ " rejects call 1") true
           (match T.program ~n:4 ~pid:0 ~call:1 with
            | _ -> false
            | exception Invalid_argument _ -> true))
    Timestamp.Registry.all

let registry_names_unique () =
  let names = List.map Util.impl_name Timestamp.Registry.all in
  Util.check_int "unique names" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let registry_find () =
  Util.check_bool "find existing" true
    (Timestamp.Registry.find "lamport-longlived" <> None);
  Util.check_bool "find missing" true (Timestamp.Registry.find "nope" = None)

let registry_find_exn () =
  Alcotest.(check string) "find_exn existing"
    "efr-longlived"
    (Timestamp.Registry.(name (find_exn "efr-longlived")));
  Alcotest.(check string) "find_exn with matching kind"
    "sqrt-oneshot"
    (Timestamp.Registry.(name (find_exn ~kind:`One_shot "sqrt-oneshot")));
  (match Timestamp.Registry.find_exn "nope" with
   | _ -> Alcotest.fail "find_exn should raise on an unknown name"
   | exception Failure msg ->
     Alcotest.(check string) "uniform unknown-implementation message"
       "unknown implementation \"nope\", try: simple-oneshot, \
        simple-swap-oneshot, sqrt-oneshot, lamport-longlived, efr-longlived, \
        vector-longlived, snapshot-longlived"
       msg);
  (* the kind filter excludes implementations of the other kind and only
     suggests names from the requested pool *)
  match Timestamp.Registry.find_exn ~kind:`One_shot "lamport-longlived" with
  | _ -> Alcotest.fail "find_exn should respect the kind filter"
  | exception Failure msg ->
    Alcotest.(check string) "kind-filtered message"
      "unknown one-shot implementation \"lamport-longlived\", try: \
       simple-oneshot, simple-swap-oneshot, sqrt-oneshot"
      msg

let suite =
  ( "timestamp-generic",
    List.concat_map
      (fun impl ->
         [ prop_compare_consistent impl;
           prop_space_within_bound impl;
           prop_waves impl;
           Util.case
             (Util.impl_name impl ^ ": sequential timestamps increase")
             (sequential_strictly_increasing impl);
           Util.case
             (Util.impl_name impl ^ ": tolerates crash-stop failures")
             (crash_tolerance impl);
           Util.case
             (Util.impl_name impl ^ ": compare is irreflexive")
             (compare_irreflexive impl) ])
      Timestamp.Registry.all
    @ List.map
        (fun impl ->
           Util.case
             (Util.impl_name impl ^ ": declared order holds")
             (declared_order_holds impl))
        (List.filter
           (fun impl -> Timestamp.Registry.order impl <> `General)
           Timestamp.Registry.all)
    @ [ Util.case "vector compare is not a strict weak order"
          vector_is_not_strict_weak;
        Util.case "vector compare allocates nothing"
          vector_compare_allocates_nothing;
        Util.case "one-shot objects reject second calls" one_shot_rejects_second_call;
        Util.case "registry names unique" registry_names_unique;
        Util.case "registry find" registry_find;
        Util.case "registry find_exn" registry_find_exn ] )
