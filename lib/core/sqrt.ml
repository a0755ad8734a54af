(** The asymptotically space-optimal wait-free timestamp algorithm of
    Section 6 (Algorithms 3–4): [ceil(2 * sqrt M)] registers for any system
    that performs at most [M] getTS calls in total.  One-shot timestamps are
    the special case [M = n] (Theorem 1.3).

    Registers hold either [Bot] or a pair [(seq, rnd)] where [seq] is a
    sequence of getTS-ids and [rnd] a positive round number.  Timestamps are
    lexicographically compared pairs [(rnd, turn)].  The implementation
    follows the paper's pseudocode line by line; the line numbers in the
    comments refer to Algorithm 4.  The scan of line 13 is the
    double-collect scan of Afek et al. ({!Snapshot.Collect.scan}), whose use
    here is wait-free because every getTS performs at most [m - 1] writes
    (Lemma 6.14).

    Registers are 1-based in the paper; this module keeps the paper's
    indices and maps register [j] to simulator index [j - 1]. *)

open Shm.Prog.Syntax

type id = { pid : int; seq_no : int }
(** A getTS-id "p.k": the [seq_no]-th invocation by process [pid]. *)

type cell = { ids : id list; rnd : int }
(** [ids] is the paper's [seq] (oldest first, length 1 or the phase
    number); cells are immutable so that forked executions may share
    them. *)

type value =
  | Bot
  | Cell of cell

type result = int * int
(** A timestamp [(rnd, turn)]. *)

exception Register_space_exhausted
(** Raised when an execution needs more registers than provisioned, i.e.,
    the total number of getTS calls exceeded the bound [M] the object was
    created for.  Never raised when the bound is respected (Lemma 6.5). *)

let pp_id ppf i = Format.fprintf ppf "%d.%d" i.pid i.seq_no

let pp_value ppf = function
  | Bot -> Format.pp_print_string ppf "_"
  | Cell { ids; rnd } ->
    Format.fprintf ppf "<[%a],%d>"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
         pp_id)
      ids rnd

let equal_value (a : value) (b : value) = a = b

let is_bot = function Bot -> true | Cell _ -> false

(* Smallest m with m >= 2 * sqrt calls, i.e., m * m >= 4 * calls. *)
let registers_for_calls calls =
  if calls <= 0 then invalid_arg "Sqrt.registers_for_calls";
  let rec grow m = if m * m >= 4 * calls then m else grow (m + 1) in
  grow (max 1 (int_of_float (2. *. sqrt (float_of_int calls)) - 2))

let last_id ids =
  match List.rev ids with
  | [] -> invalid_arg "Sqrt.last_id: empty id sequence"
  | i :: _ -> i

(* seq[j] with the paper's 1-based indexing; [None] when out of range
   (possible only if the register was overwritten by an invalidation value,
   whose sequence has length 1 — treated as a mismatch at line 7). *)
let seq_at ids j = List.nth_opt ids (j - 1)

(* The compare method, Algorithm 3: lexicographic order on (rnd, turn). *)
let compare_ts ((rnd1, turn1) : result) ((rnd2, turn2) : result) =
  rnd1 < rnd2 || (rnd1 = rnd2 && turn1 < turn2)

let order = `Strict_weak

let equal_ts ((a, b) : result) ((c, d) : result) = a = c && b = d

let pp_ts ppf (rnd, turn) = Format.fprintf ppf "(%d,%d)" rnd turn

(* Register j (1-based, as in the paper) lives at simulator index j - 1. *)
let rg j = j - 1

let read_reg m j =
  if j > m then raise Register_space_exhausted;
  Shm.Prog.read (rg j)

let write_reg m j v =
  if j > m then raise Register_space_exhausted;
  Shm.Prog.write (rg j) v

(* What to do at lines 10-11 when register j is invalid (the line-7 test
   failed).  The paper's Algorithm 4 overwrites only stale invalidations
   ([rnd < myrnd]); Section 6.1 explains that never overwriting is subtly
   incorrect under concurrency, while always overwriting is correct but
   wastes space.  The variants exist for the ablation experiment (EA). *)
type repair =
  | Repair_stale  (** the paper's rule: overwrite iff [R[j].rnd < myrnd] *)
  | Repair_never  (** INCORRECT under concurrency (kept for the ablation) *)
  | Repair_always  (** correct; performs more invalidation writes *)

(* Algorithm 4 for a system with m registers. *)
let get_ts ?(repair = Repair_stale) ~m ~id () =
  (* Lines 1-3: find the non-Bot prefix, remembering the values read. *)
  let rec while_loop j r =
    let* v = read_reg m j in
    match v with
    | Bot -> for_loop (j - 1) (List.rev r) 1  (* line 4: myrnd = j - 1 *)
    | Cell _ -> while_loop (j + 1) (v :: r)
  (* Lines 5-12.  [r] holds the while-loop reads of R[1..myrnd], oldest
     first; only r[myrnd] is ever consulted (via [r_myrnd] below). *)
  and for_loop myrnd r j =
    let r_myrnd () =
      match List.nth_opt r (myrnd - 1) with
      | Some (Cell c) -> c
      | Some Bot | None -> assert false
      (* the while loop read it as non-Bot *)
    in
    if j > myrnd - 1 then after_loop myrnd
    else
      (* Line 6: check that the phase has not visibly advanced. *)
      let* probe = read_reg m (myrnd + 1) in
      match probe with
      | Cell _ -> Shm.Prog.return (myrnd + 1, 0)  (* line 12 *)
      | Bot ->
        (* One read of R[j] serves both the line-7 validity test and the
           line-10 round check, as in the paper. *)
        let* vj = read_reg m j in
        (match vj with
         | Bot ->
           (* Impossible for a correct execution (Claim 6.1 (a), (d)):
              registers never return to Bot and the prefix below myrnd was
              non-Bot.  Treated as a failed validity test defensively. *)
           for_loop myrnd r (j + 1)
         | Cell cj ->
           let valid =
             match seq_at (r_myrnd ()).ids j with
             | Some expected -> expected = last_id cj.ids
             | None -> false
           in
           if valid then
             (* Lines 8-9: invalidate R[j] and adopt turn j. *)
             let* () =
               write_reg m j (Cell { ids = [ id ]; rnd = myrnd })
             in
             Shm.Prog.return (myrnd, j)
           else
             let overwrite =
               match repair with
               | Repair_stale -> cj.rnd < myrnd
               | Repair_never -> false
               | Repair_always -> true
             in
             if overwrite then
               (* Lines 10-11: overwrite the invalidation so R[j] stays
                  invalid for the rest of the phase. *)
               let* () =
                 write_reg m j (Cell { ids = [ id ]; rnd = myrnd })
               in
               for_loop myrnd r (j + 1)
             else for_loop myrnd r (j + 1))
  (* Lines 13-16. *)
  and after_loop myrnd =
    let* view =
      Snapshot.Collect.scan ~equal:equal_value ~lo:0 ~hi:(m - 1) ()
    in
    match view.(rg (myrnd + 1)) with
    | Cell _ -> Shm.Prog.return (myrnd + 1, 0)  (* line 14 fails: line 16 *)
    | Bot ->
      (* Line 15: start phase myrnd + 1 by publishing the sequence of the
         last ids of R[1..myrnd] observed by the scan, plus our own id. *)
      let lasts =
        List.init myrnd (fun i ->
            match view.(i) with
            | Cell c -> last_id c.ids
            | Bot -> assert false (* prefix of a non-Bot register *))
      in
      let* () =
        write_reg m (myrnd + 1)
          (Cell { ids = lasts @ [ id ]; rnd = myrnd + 1 })
      in
      Shm.Prog.return (myrnd + 1, 0)
  in
  while_loop 1 []

(** Instantiation for a fixed bound on the total number of getTS calls
    (Section 7: the algorithm generalises to any fixed M, long-lived). *)
module With_calls (C : sig
    val total_calls : int
  end) =
struct
  type nonrec value = value

  type nonrec result = result

  let name = Printf.sprintf "sqrt-M%d" C.total_calls

  let kind = `Long_lived

  let num_registers ~n:_ = registers_for_calls C.total_calls

  let init_value ~n:_ = Bot

  let program ~n ~pid ~call =
    if pid < 0 || pid >= n then invalid_arg "Sqrt.program: bad pid";
    get_ts ~m:(num_registers ~n) ~id:{ pid; seq_no = call } ()

  let compare_ts = compare_ts

  let order = order

  let equal_ts = equal_ts

  let pp_ts = pp_ts
end

(** The one-shot instance of Theorem 1.3: M = n, hence [ceil(2 sqrt n)]
    registers. *)
module One_shot = struct
  type nonrec value = value

  type nonrec result = result

  let name = "sqrt-oneshot"

  let kind = `One_shot

  let num_registers ~n =
    if n <= 0 then invalid_arg "Sqrt.One_shot.num_registers";
    registers_for_calls n

  let init_value ~n:_ = Bot

  let program ~n ~pid ~call =
    if call <> 0 then
      invalid_arg "Sqrt.One_shot.program: one-shot object, call must be 0";
    if pid < 0 || pid >= n then invalid_arg "Sqrt.One_shot.program: bad pid";
    get_ts ~m:(num_registers ~n) ~id:{ pid; seq_no = 0 } ()

  let compare_ts = compare_ts

  let order = order

  let equal_ts = equal_ts

  let pp_ts = pp_ts
end
