(* [Monotonic_clock.now] is bechamel's clock_gettime (CLOCK_MONOTONIC)
   stub, an unboxed [@@noalloc] int64 external; it inlines here, so a
   read allocates nothing (test/test_obs.ml pins it). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let now_us () = float_of_int (now_ns ()) *. 1e-3

let elapsed_s t0 = float_of_int (now_ns () - t0) *. 1e-9

let sleep_s s =
  try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()
