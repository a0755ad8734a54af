(** Parallel stress harness for timestamp objects on real domains.

    [n] domains each perform [calls] getTS operations in parallel on the
    same atomic registers.  The happens-before relation between operations
    is derived soundly from a linearizable logical clock (an atomic
    fetch-and-add counter): an operation reads the counter before its first
    step and bumps it after its last, so [end1 < start2] implies the first
    operation really happened before the second.  Compare-consistency is
    then checked exactly as in the simulator.

    When the instrumentation layer is armed ({!Obs.Hooks.armed}), the run
    is bracketed by ["stress.spawn"]/["stress.run"]/["stress.check"] spans
    and each operation executes under {!Exec.run_obs}, reporting per
    -register telemetry.  The armed flag is sampled once at the start of
    {!Make.run}, before any domain spawns. *)

module Make (T : Timestamp.Intf.S) : sig
  type op_record = {
    pid : int;
    call : int;
    start_tick : int;
    end_tick : int;
    ts : T.result;
  }

  val run : n:int -> calls:int -> unit -> op_record list
  (** Spawns [n] domains; every domain performs [calls] getTS calls (only 1
      is allowed for one-shot objects).  Blocks until all domains finish. *)

  val check : op_record list -> (int, string) result
  (** Verifies the timestamp specification over the derived happens-before
      relation; returns the number of ordered pairs checked. *)

  val run_and_check : n:int -> calls:int -> unit -> (int, string) result
end
