open Shm.Prog.Syntax

(* Copy of Simple_oneshot's program shape, parameterized so each mutant
   states its single planted defect in one place. *)
module type ONESHOT_TWIST = sig
  val name : string

  val write_back : int -> int  (* value stored after reading [v] (correct: v+1) *)

  val compare_ts : int -> int -> bool  (* correct: (<) *)
end

module Oneshot_mutant (M : ONESHOT_TWIST) :
  Timestamp.Intf.S with type value = int and type result = int = struct
  type value = int

  type result = int

  let name = M.name

  let kind = `One_shot

  let num_registers ~n =
    if n <= 0 then invalid_arg (M.name ^ ".num_registers");
    (n + 1) / 2

  let init_value ~n:_ = 0

  let program ~n ~pid ~call =
    if call <> 0 then invalid_arg (M.name ^ ": one-shot, call must be 0");
    if pid < 0 || pid >= n then invalid_arg (M.name ^ ": bad pid");
    let m = num_registers ~n in
    let mine = pid / 2 in
    Shm.Prog.fold_range ~lo:0 ~hi:(m - 1) ~init:0 (fun sum i ->
        if i = mine then
          let* v = Shm.Prog.read i in
          let* () = Shm.Prog.write i (M.write_back v) in
          Shm.Prog.return (sum + v + 1)
        else
          let+ v = Shm.Prog.read i in
          sum + v)

  let compare_ts = M.compare_ts

  (* Mutants run under [check_sim]'s scan, which ignores the
     declaration; [`General] claims nothing, so it is true of any twist. *)
  let order = `General

  let equal_ts = Int.equal

  let pp_ts = Format.pp_print_int
end

module Lost_increment = Oneshot_mutant (struct
    let name = "mutant-lost-increment"

    let write_back v = v (* BUG: drops the increment; registers never move *)

    let compare_ts = ( < )
  end)

module Inverted_compare = Oneshot_mutant (struct
    let name = "mutant-inverted-compare"

    let write_back v = v + 1

    let compare_ts t1 t2 = t2 < t1 (* BUG: orders every hb pair backwards *)
  end)

module Reflexive_compare = Oneshot_mutant (struct
    let name = "mutant-reflexive-compare"

    let write_back v = v + 1

    let compare_ts t1 t2 = t1 <= t2 (* BUG: not a strict order *)
  end)

(* Lamport's long-lived construction, minus the maximum: each process bumps
   its own register only, so it never catches up with faster processes. *)
module Lamport_no_max :
  Timestamp.Intf.S with type value = int and type result = int = struct
  type value = int

  type result = int

  let name = "mutant-lamport-no-max"

  let kind = `Long_lived

  let num_registers ~n =
    if n <= 0 then invalid_arg "mutant-lamport-no-max.num_registers";
    n

  let init_value ~n:_ = 0

  let program ~n ~pid ~call:_ =
    if pid < 0 || pid >= n then invalid_arg "mutant-lamport-no-max: bad pid";
    let* own = Shm.Prog.read pid in
    (* BUG: should be 1 + max over a collect of all registers *)
    let t = own + 1 in
    let* () = Shm.Prog.write pid t in
    Shm.Prog.return t

  let compare_ts (t1 : int) (t2 : int) = t1 < t2

  let order = `General

  let equal_ts = Int.equal

  let pp_ts = Format.pp_print_int
end

let all : Timestamp.Registry.impl list =
  [ Impl (module Lost_increment);
    Impl (module Inverted_compare);
    Impl (module Reflexive_compare);
    Impl (module Lamport_no_max) ]

let names = List.map Timestamp.Registry.name all

let find name =
  List.find_opt (fun i -> Timestamp.Registry.name i = name) all

let clean_counterpart name =
  match find name with
  | None -> None
  | Some (Timestamp.Registry.Impl (module T)) -> (
      match T.kind with
      | `One_shot -> Some Timestamp.Registry.simple_oneshot
      | `Long_lived -> Some Timestamp.Registry.lamport)
