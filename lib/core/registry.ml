(** Registry of all timestamp implementations, as existentially packed
    first-class modules, so that tests, benchmarks and the CLI can iterate
    over every algorithm uniformly. *)

type impl =
  | Impl :
      (module Intf.S with type value = 'v and type result = 'r)
      -> impl

let name (Impl (module T)) = T.name

let kind (Impl (module T)) = T.kind

let order (Impl (module T)) = T.order

let num_registers (Impl (module T)) ~n = T.num_registers ~n

let simple_oneshot = Impl (module Simple_oneshot)

let simple_swap = Impl (module Simple_swap)

let sqrt_oneshot = Impl (module Sqrt.One_shot)

let lamport = Impl (module Lamport)

let efr = Impl (module Efr)

let vector = Impl (module Vector_ts)

let snapshot_ts = Impl (module Snapshot_ts)

let all =
  [ simple_oneshot; simple_swap; sqrt_oneshot; lamport; efr; vector;
    snapshot_ts ]

let one_shot = List.filter (fun i -> kind i = `One_shot) all

let long_lived = List.filter (fun i -> kind i = `Long_lived) all

let find name_ = List.find_opt (fun i -> name i = name_) all

let find_exn ?kind name_ =
  let pool, what =
    match kind with
    | None -> (all, "implementation")
    | Some `One_shot -> (one_shot, "one-shot implementation")
    | Some `Long_lived -> (long_lived, "long-lived implementation")
  in
  match List.find_opt (fun i -> name i = name_) pool with
  | Some i -> i
  | None ->
    failwith
      (Printf.sprintf "unknown %s %S, try: %s" what name_
         (String.concat ", " (List.map name pool)))

(* Generic experiment drivers over a packed implementation. *)

module Workload = struct
  type t =
    | Random of { calls : int }
    | Staggered of { invoke_prob : float; calls : int }
    | Wave of { wave_size : int }

  let pp ppf = function
    | Random { calls } -> Format.fprintf ppf "random calls=%d" calls
    | Staggered { invoke_prob; calls } ->
      Format.fprintf ppf "staggered invoke_prob=%g calls=%d" invoke_prob calls
    | Wave { wave_size } -> Format.fprintf ppf "wave size=%d" wave_size
end

type probe_result = {
  hb_pairs : int;
  regs_written : int;
  regs_touched : int;
  regs_provisioned : int;
}

let probe (Impl (module T)) ~n ~seed workload =
  let module H = Harness.Make (T) in
  let clamp calls = match T.kind with `One_shot -> 1 | `Long_lived -> calls in
  let cfg =
    match (workload : Workload.t) with
    | Random { calls } -> H.run_random ~calls:(clamp calls) ~n ~seed ()
    | Staggered { invoke_prob; calls } ->
      H.run_random ~invoke_prob ~calls:(clamp calls) ~n ~seed ()
    | Wave { wave_size } -> H.run_waves ~wave_size ~n ~seed ()
  in
  let hb_pairs = H.check_exn cfg in
  let regs_written, regs_touched = H.space_used cfg in
  { hb_pairs; regs_written; regs_touched;
    regs_provisioned = T.num_registers ~n }

(* All-sequential run returning the timestamps in issue order. *)
let sequential_kinds (Impl (module T)) ~n =
  let module H = Harness.Make (T) in
  let _, ts = H.run_sequential ~n in
  List.map (fun t -> Format.asprintf "%a" T.pp_ts t) ts
