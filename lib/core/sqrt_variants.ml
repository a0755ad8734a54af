(** Ablation variants of Algorithm 4 (experiment EA; see Section 6.1 of the
    paper).

    When a getTS finds register [R[j]] invalid, the paper's algorithm
    re-overwrites it {e only} when the invalidation is stale
    ([R[j].rnd < myrnd], lines 10-11).  Section 6.1 discusses the two
    obvious alternatives:

    - {b never overwriting}: "getTS(b) beginning after getTS(a) completes
      would invalidate R[1] and return timestamp (k,1), which is incorrect"
      — a real correctness bug under a specific interleaving of two
      phase-starting scans and an old write.  {!No_repair} implements it so
      the checker can hunt the violation.
    - {b always overwriting}: "This simple repair to correctness, however,
      can increase space complexity" — {!Eager_repair} implements it; the
      EA experiment measures the extra invalidation writes. *)

module type VARIANT = sig
  include Intf.S with type value = Sqrt.value and type result = Sqrt.result
end

let make_variant ~variant_name ~repair : (module VARIANT) =
  (module struct
    type value = Sqrt.value

    type result = Sqrt.result

    let name = variant_name

    let kind = `One_shot

    let num_registers ~n =
      if n <= 0 then invalid_arg (variant_name ^ ".num_registers");
      Sqrt.registers_for_calls n

    let init_value ~n:_ = Sqrt.Bot

    let program ~n ~pid ~call =
      if call <> 0 then
        invalid_arg (variant_name ^ ".program: one-shot object");
      if pid < 0 || pid >= n then
        invalid_arg (variant_name ^ ".program: bad pid");
      Sqrt.get_ts ~repair ~m:(num_registers ~n)
        ~id:{ Sqrt.pid; seq_no = 0 } ()

    let compare_ts = Sqrt.compare_ts

    let order = Sqrt.order

    let equal_ts = Sqrt.equal_ts

    let pp_ts = Sqrt.pp_ts
  end)

module No_repair =
  (val make_variant ~variant_name:"sqrt-no-repair" ~repair:Sqrt.Repair_never)

module Eager_repair =
  (val make_variant ~variant_name:"sqrt-eager-repair"
      ~repair:Sqrt.Repair_always)

(* Search random one-shot schedules for a specification violation of a
   variant; returns the first bad seed with the violation message. *)
let hunt_violation (module V : VARIANT) ~n ~seeds =
  let module H = Harness.Make (V) in
  let rec go seed =
    if seed >= seeds then None
    else
      let cfg = H.run_random ~invoke_prob:0.25 ~n ~seed () in
      match H.check cfg with
      | Ok _ -> go (seed + 1)
      | Error v -> Some (seed, Format.asprintf "%a" Checker.pp_violation v)
  in
  go 0

(* Total writes performed by a full one-shot workload: the space/time cost
   of a repair policy. *)
let writes_of (module V : VARIANT) ~n ~seed =
  let module H = Harness.Make (V) in
  let cfg = H.run_random ~invoke_prob:0.25 ~n ~seed () in
  (Shm.Sim.writes cfg, fst (H.space_used cfg))
