(** Vector timestamps as a shared-memory long-lived timestamp object:
    [n] single-writer counters; getTS increments the caller's counter and
    collects all counters into a vector; compare is strict pointwise
    dominance (a partial order, which the paper's weak specification
    permits: concurrent timestamps may be incomparable).

    This is the shared-memory counterpart of the Fidge/Mattern vector
    clocks cited in the paper's introduction. *)

open Shm.Prog.Syntax

type value = int

type result = int array

let name = "vector-longlived"

let kind = `Long_lived

let num_registers ~n =
  if n <= 0 then invalid_arg "Vector_ts.num_registers";
  n

let init_value ~n:_ = 0

let program ~n ~pid ~call:_ =
  if pid < 0 || pid >= n then invalid_arg "Vector_ts.program: bad pid";
  let* c = Shm.Prog.read pid in
  let* () = Shm.Prog.write pid (c + 1) in
  Snapshot.Collect.collect ~lo:0 ~hi:(n - 1)

(* [v1.(j) <= v2.(j)] for every [j >= i], and [strict] or [<] for one:
   int comparisons, no closure, and out at the first component above. *)
let rec dominated v1 v2 i strict =
  if i = Array.length v1 then strict
  else
    let x : int = Array.unsafe_get v1 i and y : int = Array.unsafe_get v2 i in
    x <= y && dominated v1 v2 (i + 1) (strict || x < y)

let compare_ts (v1 : int array) (v2 : int array) =
  if Array.length v1 <> Array.length v2 then
    invalid_arg "compare_ts: vectors of different lengths";
  dominated v1 v2 0 false

let order = `Strict_partial

let equal_ts (v1 : int array) v2 = v1 = v2

let pp_ts ppf v =
  Format.fprintf ppf "@[<h>[%a]@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list v)
