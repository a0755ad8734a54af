(** The simple one-shot timestamp algorithm of Section 5 (Algorithms 1–2):
    [ceil(n/2)] registers, each shared by two writer processes and holding a
    value in [{0, 1, 2}].

    getTS by process [p] reads all registers in sequence; when it reaches
    the register it shares (register [floor(p/2)] with 0-based pids), it
    increments it; the timestamp is the sum of all values it contributed to
    or observed.  compare is integer [<].  Wait-free. *)

open Shm.Prog.Syntax

type value = int

type result = int

let name = "simple-oneshot"

let kind = `One_shot

let num_registers ~n =
  if n <= 0 then invalid_arg "Simple_oneshot.num_registers";
  (n + 1) / 2

let init_value ~n:_ = 0

let program ~n ~pid ~call =
  if call <> 0 then
    invalid_arg "Simple_oneshot.program: one-shot object, call must be 0";
  if pid < 0 || pid >= n then invalid_arg "Simple_oneshot.program: bad pid";
  let m = num_registers ~n in
  let mine = pid / 2 in
  Shm.Prog.fold_range ~lo:0 ~hi:(m - 1) ~init:0 (fun sum i ->
      if i = mine then
        let* v = Shm.Prog.read i in
        let* () = Shm.Prog.write i (v + 1) in
        Shm.Prog.return (sum + v + 1)
      else
        let+ v = Shm.Prog.read i in
        sum + v)

let compare_ts (t1 : int) (t2 : int) = t1 < t2

let order = `Strict_weak

let equal_ts = Int.equal

let pp_ts = Format.pp_print_int
