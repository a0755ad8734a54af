(** Minimized counterexamples as replayable artifacts.

    A repro pins everything needed to re-run a failing schedule: the
    implementation (registry or mutant name), the system size, the abstract
    schedule, and its provenance (generator seed and iteration, when it came
    from the fuzz loop rather than by hand).  Two renderings: an OCaml value
    (paste into a test) and a JSON trace file (checked into
    [test/repro_corpus/] and replayed by [ts_cli fuzz --replay]). *)

type t = {
  impl : string;  (** {!Timestamp.Registry} or {!Mutant} name *)
  n : int;
  seed : int option;  (** generator seed that produced the ancestor *)
  iteration : int option;  (** fuzz iteration the ancestor appeared at *)
  schedule : Shm.Schedule.action list;
}

val to_ocaml : t -> string
(** The schedule as an OCaml expression of type
    [Shm.Schedule.action list], e.g.
    [[Invoke 0; Step 0; Step 0; Invoke 1]]. *)

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> (t, string) result

val save : t -> string -> unit
(** Pretty-printed JSON, one file per repro. *)

val load : string -> (t, string) result
