(** Lamport's bakery algorithm (Lamport 1974), the classic timestamp-based
    FCFS mutual exclusion cited in the paper's introduction.

    Each process owns one register holding its doorway flag and ticket;
    one extra register holds a critical-section occupancy counter used by
    the test harness to detect mutual-exclusion violations: a session
    records the occupancy it observed on entry (must be 0) and the value it
    decremented on exit (must be 1).

    A session program performs: doorway (choose a ticket larger than every
    ticket read), bakery wait loop, critical section (increment occupancy,
    a few dummy steps, decrement), release.  The wait loop makes the
    algorithm deadlock-free rather than wait-free, so drive it with a fair
    scheduler. *)

open Shm.Prog.Syntax

type slot = { choosing : bool; number : int }

type value =
  | Slot of slot
  | Occupancy of int

type result = {
  ticket : int;
  entry_occupancy : int;  (** occupancy observed when entering: must be 0 *)
  exit_occupancy : int;  (** occupancy observed when leaving: must be 1 *)
}

let name = "bakery"

let kind = `Long_lived

let num_registers ~n =
  if n <= 0 then invalid_arg "Bakery.num_registers";
  n + 1

let init_value ~n:_ = Slot { choosing = false; number = 0 }

let occupancy_reg ~n = n

(* Register [n] is the occupancy counter; the per-process slots precede it.
   Use with {!Shm.Sim.of_regs}. *)
let init_regs ~n =
  Array.init (num_registers ~n) (fun r ->
      if r < n then Slot { choosing = false; number = 0 } else Occupancy 0)

let create ~n : (value, result) Shm.Sim.t = Shm.Sim.of_regs ~n ~regs:(init_regs ~n)

let slot_of = function
  | Slot s -> s
  | Occupancy _ -> invalid_arg "Bakery: expected a slot register"

let occ_of = function
  | Occupancy c -> c
  | Slot _ -> invalid_arg "Bakery: expected the occupancy register"

(* (number, pid) lexicographic priority: lower goes first. *)
let goes_before (n1, p1) (n2, p2) = n1 < n2 || (n1 = n2 && p1 < p2)

let program ~n ~pid ~call:_ =
  if pid < 0 || pid >= n then invalid_arg "Bakery.program: bad pid";
  let occ = occupancy_reg ~n in
  (* Doorway. *)
  let* () = Shm.Prog.write pid (Slot { choosing = true; number = 0 }) in
  Shm.Prog.fold_reads ~lo:0 ~hi:(n - 1) ~init:0
    (fun mx v -> max mx (slot_of v).number)
  @@ fun mx ->
  let ticket = mx + 1 in
  let* () = Shm.Prog.write pid (Slot { choosing = false; number = ticket }) in
  (* Wait loop: for each other process, wait out its doorway, then wait
     until it is not competing or has lower priority. *)
  let rec wait_choosing j =
    let* v = Shm.Prog.read j in
    if (slot_of v).choosing then wait_choosing j else Shm.Prog.return ()
  in
  let rec wait_turn j =
    let* v = Shm.Prog.read j in
    let s = slot_of v in
    if s.number <> 0 && goes_before (s.number, j) (ticket, pid) then wait_turn j
    else Shm.Prog.return ()
  in
  let* () =
    Shm.Prog.iter_range ~lo:0 ~hi:(n - 1) (fun j ->
        if j = pid then Shm.Prog.return ()
        else
          let* () = wait_choosing j in
          wait_turn j)
  in
  (* Critical section, instrumented through the occupancy counter. *)
  let* e = Shm.Prog.read occ in
  let entry_occupancy = occ_of e in
  let* () = Shm.Prog.write occ (Occupancy (entry_occupancy + 1)) in
  let* _ = Shm.Prog.read pid in
  let* _ = Shm.Prog.read occ in
  let* x = Shm.Prog.read occ in
  let exit_occupancy = occ_of x in
  let* () = Shm.Prog.write occ (Occupancy (exit_occupancy - 1)) in
  (* Release. *)
  let* () = Shm.Prog.write pid (Slot { choosing = false; number = 0 }) in
  Shm.Prog.return { ticket; entry_occupancy; exit_occupancy }

let session_ok r = r.entry_occupancy = 0 && r.exit_occupancy = 1

let pp_result ppf r =
  Format.fprintf ppf "{ticket=%d; in=%d; out=%d}" r.ticket r.entry_occupancy
    r.exit_occupancy
