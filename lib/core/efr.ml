(** An (n-1)-register long-lived unbounded timestamp object, in the spirit
    of the Ellen–Fatourou–Ruppert upper bound.

    EFR showed that [n - 1] registers suffice for long-lived timestamps when
    the timestamp universe is {e not} nowhere dense (their lower bound shows
    [n] registers are necessary otherwise).  This module is a reconstruction
    with the same interface and properties (see DESIGN.md, substitution 1):

    - processes [0 .. n-2] own one single-writer register each and behave
      like {!Lamport}: read all, write [max + 1], return the {e even}
      timestamp [Even (max + 1)];
    - process [n-1] owns no register: it reads all registers and returns the
      {e odd} timestamp [Odd (max, c)] where [c] is its local invocation
      counter.  [Odd (m, c)] sits strictly between [Even m] and
      [Even (m + 1)].

    The universe is therefore not nowhere dense: between [Even m] and
    [Even (m+1)] lie the infinitely many [Odd (m, c)] — exactly the escape
    hatch EFR exploit.  Wait-free; [n - 1] registers. *)

open Shm.Prog.Syntax

type value = int

type result =
  | Even of int  (** issued by a register-owning process after writing *)
  | Odd of int * int  (** issued by the registerless process: (max seen, local counter) *)

let name = "efr-longlived"

let kind = `Long_lived

let num_registers ~n =
  if n <= 0 then invalid_arg "Efr.num_registers";
  n - 1

let init_value ~n:_ = 0

let program ~n ~pid ~call =
  if pid < 0 || pid >= n then invalid_arg "Efr.program: bad pid";
  let m = n - 1 in
  Shm.Prog.fold_reads ~lo:0 ~hi:(m - 1) ~init:0 Int.max @@ fun mx ->
  if pid < m then
    let t = mx + 1 in
    let* () = Shm.Prog.write pid t in
    Shm.Prog.return (Even t)
  else Shm.Prog.return (Odd (mx, call))

(* Total preorder by numeric height 2k / 2m+1, refined by the local counter
   among the registerless process's own timestamps. *)
let height = function Even k -> (2 * k) | Odd (m, _) -> (2 * m) + 1

let compare_ts t1 t2 =
  height t1 < height t2
  ||
  match t1, t2 with
  | Odd (m1, c1), Odd (m2, c2) -> m1 = m2 && c1 < c2
  | (Even _ | Odd _), _ -> false

(* [Even] values sit on even heights and [Odd] ones on odd heights, and
   all [Odd] values of one height share [m]; so [compare_ts] is the
   lexicographic order on [(height, c)] (with [c = 0] for [Even]), a strict
   weak order. *)
let order = `Strict_weak

let equal_ts (t1 : result) (t2 : result) = t1 = t2

let pp_ts ppf = function
  | Even k -> Format.fprintf ppf "E%d" k
  | Odd (m, c) -> Format.fprintf ppf "O%d.%d" m c
