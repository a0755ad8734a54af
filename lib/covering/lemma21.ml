(** Executable form of Lemma 2.1 (Ellen, Fatourou, Ruppert 2008).

    Given a reachable configuration [C], three disjoint process sets
    [B0, B1, B2] each covering a register set [R], and probe processes
    [u0, u1], the lemma guarantees an [i] such that every [ui]-only
    execution from [pi_Bi (C)] containing a complete getTS writes to some
    register outside [R].

    [probe] tests both sides by simulation and reports which of them write
    outside [R]; an empty result would falsify the lemma for the tested
    implementation and is returned as an error.  Used both as a property
    test (E6) and as the decision procedure inside the adversaries. *)

type side = U0 | U1

let pp_side ppf = function
  | U0 -> Format.pp_print_string ppf "U0"
  | U1 -> Format.pp_print_string ppf "U1"

type report = {
  writers : side list;  (** sides whose solo run wrote outside [R] *)
  steps : int * int;  (** solo steps taken by each side *)
}

let probe ~fuel ~(supplier : ('v, 'r) Exec_util.supplier)
    ~(cfg : ('v, 'r) Shm.Sim.t) ~b0 ~b1 ?(b2 = []) ~u0 ~u1 ~r () :
  (report, string) result =
  Exec_util.assert_block cfg b0;
  Exec_util.assert_block cfg b1;
  Exec_util.assert_block cfg b2;
  let outside reg = not (List.mem reg r) in
  let run_side bi ui =
    let cache =
      Exec_util.Cache.create supplier ~base:(Shm.Sim.block_write cfg bi)
    in
    match Exec_util.solo_complete ~fuel cache ~prefix:[] ~pid:ui with
    | None -> Error (Printf.sprintf "p%d: solo getTS did not terminate" ui)
    | Some (_, acts) ->
      Ok (Exec_util.wrote_outside cache acts ~outside, List.length acts)
  in
  match run_side b0 u0, run_side b1 u1 with
  | Error e, _ | _, Error e -> Error e
  | Ok (w0, s0), Ok (w1, s1) ->
    let writers =
      (if w0 then [ U0 ] else []) @ if w1 then [ U1 ] else []
    in
    if writers = [] then
      Error
        "Lemma 2.1 violated: neither probe wrote outside R \
         (implementation cannot be a correct timestamp object)"
    else Ok { writers; steps = (s0, s1) }
