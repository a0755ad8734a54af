(** The {e baseline} covering construction of Ellen–Fatourou–Ruppert, which
    the paper's Section 4 improves (experiment E2's efr column).

    Per round: three transversals of the covered set [R] supply the block
    writes, a chunk of the idle processes is forced to cover outside [R]
    (via the executable Lemma 4.1), and the most-covered outside register
    joins [R] (pigeonhole).  Because every round spends two block writes,
    per-register coverage decays by two per round — the limitation the
    paper identifies ("the technique cannot lead to a lower bound beyond
    Omega(sqrt n)") — so the construction stops once coverage cannot
    sustain the next round's transversals. *)

type round = {
  index : int;
  added : int;  (** register added to R (0-based) *)
  new_coverage : int;  (** processes covering it when added *)
  min_coverage : int;  (** minimum coverage over R after the round *)
  idle_left : int;
}

type ('v, 'r) outcome = {
  final_cfg : ('v, 'r) Shm.Sim.t;
  rounds : round list;
  covered : int;  (** |R| at the end *)
  stop : string;
}

val pp_round : Format.formatter -> round -> unit

val run :
  ?chunk:int ->
  fuel:int ->
  supplier:('v, 'r) Shm.Schedule.supplier ->
  cfg:('v, 'r) Shm.Sim.t ->
  unit ->
  (('v, 'r) outcome, string) result
(** [chunk] is the number of idle processes spent per round (default:
    about [n / sqrt(2n)], giving ~sqrt(2n) rounds' worth of budget). *)
