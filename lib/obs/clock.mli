(** The one clock of the repository: CLOCK_MONOTONIC in integer
    nanoseconds.

    Every latency, deadline, watchdog, stopwatch and sampler tick reads
    this module.  The clock never steps backwards, so a duration (the
    difference of two {!now_ns} reads) is never negative, and it is one
    clock for every domain and every process on a host: readings taken in
    forked loadgen workers, in a service worker and in a client compare
    directly.  Its origin is unspecified (boot on Linux), so a reading is
    not a date.  Durations the code keeps are integer nanoseconds;
    {!now_us} and {!elapsed_s} give the floats of the values that leave
    the program (emitted JSON, printed reports) and of [st_resp_us]. *)

val now_ns : unit -> int
(** Nanoseconds since an unspecified origin.  Allocates nothing. *)

val now_us : unit -> float
(** {!now_ns} in microseconds: the float that [Svc.Client.stamp]'s
    [st_resp_us] carries. *)

val elapsed_s : int -> float
(** [elapsed_s t0] is the seconds since [t0], a {!now_ns} reading. *)

val sleep_s : float -> unit
(** Sleeps about [s] seconds; a signal may cut the sleep short. *)
