(** The {e baseline} covering construction of Ellen–Fatourou–Ruppert, which
    the paper's Section 4 improves.

    As the paper recounts (Section 3): EFR "used their lemma in order to
    inductively construct executions at the end of which k registers are
    covered by Omega(sqrt(n - k)) processes, where k is bounded by
    O(sqrt n). [...] the number of processes covering one register is
    reduced by one in each inductive step, and thus [...] the technique
    cannot lead to a lower bound beyond Omega(sqrt n)."

    This module implements that scheme executably: maintain a register set
    [R] where every register is covered by at least [q] processes; per
    round, spend two transversals on block writes (coverage drops by at
    most 2), force the idle processes to cover outside [R] (Lemma 4.1),
    and add the most-covered outside register (pigeonhole).  The round
    succeeds only while the new register's coverage and the surviving
    coverage stay at least 3 (so the next round has its three
    transversals), which is what caps the baseline at ~sqrt(n) registers —
    the gap to the paper's construction is measured in experiment E2. *)

type round = {
  index : int;
  added : int;  (** register added to R *)
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

let pp_round ppf r =
  Format.fprintf ppf "round %d: +R[%d] coverage=%d min=%d idle=%d" r.index
    (r.added + 1) r.new_coverage r.min_coverage r.idle_left

(* Coverage of register [reg]: processes poised to write it. *)
let coverage cfg reg = List.length (Signature.coverers cfg ~reg)

let take k l = List.filteri (fun i _ -> i < k) l

let run ?chunk ~fuel ~supplier ~cfg () =
  let n = Shm.Sim.n cfg in
  (* EFR spend only part of the process pool per inductive step; the
     default chunk makes for about sqrt(2n) rounds. *)
  let chunk =
    match chunk with
    | Some c -> max 2 c
    | None -> max 3 (n / Bounds.grid_width n)
  in
  let rec loop cfg r_set rounds index =
    let finish stop =
      Ok
        { final_cfg = cfg;
          rounds = List.rev rounds;
          covered = List.length r_set;
          stop }
    in
    let u = Shm.Sim.never_invoked cfg in
    if List.length u < 2 then finish "fewer than 2 idle processes"
    else
      let blocks =
        if r_set = [] then Ok ([], [])
        else
          match Signature.transversals cfg ~regs:r_set ~count:3 with
          | Some [ t0; t1; _ ] -> Ok (t0, t1)
          | Some _ -> assert false
          | None -> Error "R lost 3-coverage"
      in
      match blocks with
      | Error e -> finish e
      | Ok (b0, b1) -> (
          let u = take (min chunk (List.length u)) u in
          match Oneshot_adversary.lemma41 ~fuel ~supplier ~cfg ~b0 ~b1 ~u ~r:r_set with
          | Error e -> finish ("lemma 4.1: " ^ e)
          | Ok res ->
            (* Pigeonhole: the most-covered register outside R. *)
            let cfg' = res.Oneshot_adversary.final in
            let sig_ = Signature.signature cfg' in
            let best = ref None in
            Array.iteri
              (fun reg c ->
                 if (not (List.mem reg r_set)) && c > 0 then
                   match !best with
                   | Some (_, c') when c' >= c -> ()
                   | _ -> best := Some (reg, c))
              sig_;
            (match !best with
             | None -> finish "no register covered outside R"
             | Some (reg, c) ->
               let r_set' = reg :: r_set in
               let min_cov =
                 List.fold_left
                   (fun m r -> min m (coverage cfg' r))
                   max_int r_set'
               in
               let round =
                 { index;
                   added = reg;
                   new_coverage = c;
                   min_coverage = min_cov;
                   idle_left = List.length (Shm.Sim.never_invoked cfg') }
               in
               if min_cov < 3 then
                 Ok
                   { final_cfg = cfg';
                     rounds = List.rev (round :: rounds);
                     covered = List.length r_set';
                     stop = "coverage dropped below 3" }
               else loop cfg' r_set' (round :: rounds) (index + 1)))
  in
  loop cfg [] [] 1
