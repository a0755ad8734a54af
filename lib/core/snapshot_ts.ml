(** Long-lived vector timestamps over the wait-free atomic snapshot of
    Afek et al. ({!Snapshot.Wsnapshot}): [n] single-writer registers, like
    {!Vector_ts}, but the collect is replaced by an atomic scan.

    Because scans of an atomic snapshot are totally ordered by containment
    (they form a chain in the pointwise order), the resulting timestamp
    universe is totally ordered up to simultaneity — unlike the plain
    collect-based vector timestamps, whose concurrent vectors can be
    incomparable.  This illustrates the trade-off the paper's introduction
    alludes to: a stronger substrate (snapshot, itself built from the same
    [n] registers) yields strictly stronger ordering guarantees at higher
    step complexity. *)

open Shm.Prog.Syntax

type value = int Snapshot.Wsnapshot.cell

type result = int array

let name = "snapshot-longlived"

let kind = `Long_lived

let num_registers ~n =
  if n <= 0 then invalid_arg "Snapshot_ts.num_registers";
  n

let init_value ~n:_ = Snapshot.Wsnapshot.init 0

let program ~n ~pid ~call:_ =
  if pid < 0 || pid >= n then invalid_arg "Snapshot_ts.program: bad pid";
  (* bump the own component (the update embeds a scan), then take the
     atomic snapshot that becomes the timestamp *)
  let* own = Shm.Prog.read pid in
  let* () =
    Snapshot.Wsnapshot.update ~n ~me:pid (Snapshot.Wsnapshot.value own + 1)
  in
  Snapshot.Wsnapshot.scan ~n

(* Scans are vectors, ordered as {!Vector_ts} orders them. *)
let compare_ts = Vector_ts.compare_ts

let order = `Strict_partial

let equal_ts (v1 : int array) v2 = v1 = v2

let pp_ts ppf v =
  Format.fprintf ppf "@[<h>[%a]@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list v)
