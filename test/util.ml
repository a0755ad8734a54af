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

(* A [Svc.Mpsc] inbox of [(producer, seq)] items, for the inbox tests
   and the mpsc model differential. *)
type item = { item : int * int; mutable link : item }

let rec no_item = { item = (-1, -1); link = no_item }

module Inbox = Svc.Mpsc.Make (struct
    type t = item

    let nil = no_item

    let next i = i.link

    let set_next i next = i.link <- next
  end)

let push_item q item = Inbox.push q { item; link = no_item }

(* One drain, oldest first. *)
let drain_items q =
  let rec go acc i =
    if i == no_item then List.rev acc else go (i.item :: acc) i.link
  in
  go [] (Inbox.drain q)
