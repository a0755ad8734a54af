(** Registry of every timestamp implementation, packed existentially so
    that tests, benchmarks and the CLI can iterate over all algorithms
    uniformly.  Adding an implementation here automatically enrolls it in
    the generic property suites and the experiment tables. *)

type impl =
  | Impl :
      (module Intf.S with type value = 'v and type result = 'r)
      -> impl

val name : impl -> string

val kind : impl -> [ `One_shot | `Long_lived ]

val order : impl -> Intf.order

val num_registers : impl -> n:int -> int

val simple_oneshot : impl

val simple_swap : impl

val sqrt_oneshot : impl

val lamport : impl

val efr : impl

val vector : impl

val snapshot_ts : impl

val all : impl list

val one_shot : impl list

val long_lived : impl list

val find : string -> impl option

val find_exn : ?kind:[ `One_shot | `Long_lived ] -> string -> impl
(** Lookup by name, optionally restricted to one kind.  Raises [Failure]
    with a uniform ["unknown implementation %S, try: ..."] message listing
    the valid names — the single source of that error for every CLI
    subcommand. *)

(** Simulator workload descriptors for {!probe}. *)
module Workload : sig
  type t =
    | Random of { calls : int }
        (** closed random workload: every process always has a pending
            invocation until it has performed [calls] getTS calls *)
    | Staggered of { invoke_prob : float; calls : int }
        (** like [Random], but a quiescent process re-invokes only with
            probability [invoke_prob] per step, staggering the calls so
            some pairs are happens-before ordered *)
    | Wave of { wave_size : int }
        (** processes invoked in waves of [wave_size]; each wave runs to
            quiescence before the next starts, so cross-wave calls are
            ordered — the workload that gives one-shot objects a rich
            happens-before relation *)

  val pp : Format.formatter -> t -> unit
end

type probe_result = {
  hb_pairs : int;  (** happens-before pairs the checker verified *)
  regs_written : int;
  regs_touched : int;  (** read or written *)
  regs_provisioned : int;  (** [num_registers ~n] *)
}

val probe : impl -> n:int -> seed:int -> Workload.t -> probe_result
(** Runs the workload under the deterministic simulator, checks the
    timestamp specification, and reports happens-before coverage plus
    space accounting.  [calls] is forced to 1 for one-shot objects.
    Raises [Failure] on a specification violation. *)
