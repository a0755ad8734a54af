(** The classic long-lived unbounded timestamp object: [n] single-writer
    registers holding integers.  getTS reads all registers, takes the
    maximum plus one, writes it to the caller's own register and returns it;
    compare is integer [<].

    This is the folklore construction underlying Lamport's bakery labels; it
    is {e static} and its timestamp universe (the integers) is nowhere
    dense, so by Ellen–Fatourou–Ruppert it is space-optimal in that class
    ([n] registers are necessary). *)

open Shm.Prog.Syntax

type value = int

type result = int

let name = "lamport-longlived"

let kind = `Long_lived

let num_registers ~n =
  if n <= 0 then invalid_arg "Lamport.num_registers";
  n

let init_value ~n:_ = 0

let program ~n ~pid ~call:_ =
  if pid < 0 || pid >= n then invalid_arg "Lamport.program: bad pid";
  Shm.Prog.fold_reads ~lo:0 ~hi:(n - 1) ~init:0 Int.max @@ fun mx ->
  let t = mx + 1 in
  let* () = Shm.Prog.write pid t in
  Shm.Prog.return t

let compare_ts (t1 : int) (t2 : int) = t1 < t2

let order = `Strict_weak

let equal_ts = Int.equal

let pp_ts = Format.pp_print_int
