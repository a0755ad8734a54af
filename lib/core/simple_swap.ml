(** The Section-5 simple one-shot algorithm re-expressed over {e swap}
    (historyless) objects instead of read/write registers.

    Section 7 of the paper observes that the one-shot lower bound applies
    verbatim when registers are replaced by arbitrary historyless objects,
    because the covering argument only needs overwrites.  This
    implementation exercises that setting: the shared increment of a
    2-writer register with values in [{0,1,2}] is performed with swaps.

    Process [p] contributes its +1 to register [floor(p/2)] as follows:
    [swap reg 1]; if the old value was [0] we are the first writer and the
    register now holds our contribution.  Otherwise the old value was [1]
    (written by the partner, who writes exactly once on this path), so the
    correct total is 2: [swap reg 2].  Register values never decrease
    ([0 -> 1 -> 1 -> 2] in the racy case), so the monotone-sum argument of
    Lemma 5.1 carries over unchanged. *)

open Shm.Prog.Syntax

type value = int

type result = int

let name = "simple-swap-oneshot"

let kind = `One_shot

let num_registers ~n =
  if n <= 0 then invalid_arg "Simple_swap.num_registers";
  (n + 1) / 2

let init_value ~n:_ = 0

let program ~n ~pid ~call =
  if call <> 0 then
    invalid_arg "Simple_swap.program: one-shot object, call must be 0";
  if pid < 0 || pid >= n then invalid_arg "Simple_swap.program: bad pid";
  let m = num_registers ~n in
  let mine = pid / 2 in
  Shm.Prog.fold_range ~lo:0 ~hi:(m - 1) ~init:0 (fun sum i ->
      if i = mine then
        let* old = Shm.Prog.swap i 1 in
        if old = 0 then Shm.Prog.return (sum + 1)
        else
          (* the partner contributed first; restore the total of 2 *)
          let* _ = Shm.Prog.swap i 2 in
          Shm.Prog.return (sum + 2)
      else
        let+ v = Shm.Prog.read i in
        sum + v)

let compare_ts (t1 : int) (t2 : int) = t1 < t2

let order = `Strict_weak

let equal_ts = Int.equal

let pp_ts = Format.pp_print_int
