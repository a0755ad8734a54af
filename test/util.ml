(* Shared helpers for the test suites. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

let case name f = Alcotest.test_case name `Quick f

let slow_case name f = Alcotest.test_case name `Slow f

let check_bool name expected actual = Alcotest.(check bool) name expected actual

let check_int name expected actual = Alcotest.(check int) name expected actual

(* Iterate a test body over every registered timestamp implementation. *)
let over_impls f = List.iter f Timestamp.Registry.all

let impl_name (Timestamp.Registry.Impl (module T)) = T.name

let seeds = [ 1; 7; 42; 1001; 65537 ]

(* Process CPU time (every domain's) spent while the calling domain
   sleeps [s] seconds, in milliseconds. *)
let idle_cpu_ms s =
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let c0 = cpu () in
  Unix.sleepf s;
  (cpu () -. c0) *. 1e3
