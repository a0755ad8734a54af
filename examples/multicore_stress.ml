(* The same algorithm programs, interpreted over real OCaml 5 atomics and
   run on parallel domains.  Each client domain is one process executing
   its getTS calls on one shared register store; happens-before between
   calls is derived from a linearizable fetch-and-add tick, and the
   timestamp specification is checked on the real-parallel execution.

   Run with: dune exec examples/multicore_stress.exe *)

let stress (type v r) (module T : Timestamp.Intf.S with type value = v and type result = r)
    ~n ~calls ~rounds =
  let impl = Timestamp.Registry.Impl (module T) in
  let total_pairs = ref 0 in
  let failures = ref 0 in
  for _ = 1 to rounds do
    let r = Svc.Loadgen.run impl (Svc.Loadgen.stress impl ~n ~calls) in
    match r.lg_violation with
    | None -> total_pairs := !total_pairs + r.lg_hb_pairs
    | Some e ->
      incr failures;
      Printf.printf "  VIOLATION: %s\n" e
  done;
  Printf.printf "%-18s %d domains, %d rounds: %s (%d ordered pairs checked)\n"
    T.name n rounds
    (if !failures = 0 then "OK" else Printf.sprintf "%d FAILURES" !failures)
    !total_pairs

let () =
  let cores = Domain.recommended_domain_count () in
  Printf.printf "multicore stress (recommended domains on this machine: %d)\n\n"
    cores;
  let n = min 8 (max 2 cores) in
  stress (module Timestamp.Sqrt.One_shot) ~n ~calls:1 ~rounds:50;
  stress (module Timestamp.Simple_oneshot) ~n ~calls:1 ~rounds:50;
  stress (module Timestamp.Lamport) ~n:(min 4 n) ~calls:200 ~rounds:10;
  stress (module Timestamp.Efr) ~n:(min 4 n) ~calls:200 ~rounds:10;
  stress (module Timestamp.Vector_ts) ~n:(min 4 n) ~calls:100 ~rounds:10;
  (* one-shot timestamps with a total-call budget M > n (Section 7) *)
  let module M256 =
    Timestamp.Sqrt.With_calls (struct
      let total_calls = 256
    end)
  in
  stress (module M256) ~n:(min 4 n) ~calls:50 ~rounds:5
