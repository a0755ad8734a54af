(** Closed-form bound formulas from the paper, used by tests, benchmarks and
    the experiment tables. *)

val longlived_lower : int -> int
(** Theorem 1.1: any long-lived implementation uses more than [n/6 - 1]
    registers; the construction covers [floor(n/6)] registers, which is the
    value returned. *)

val longlived_upper : int -> int
(** EFR 2008: [n - 1] registers suffice. *)

val oneshot_lower : int -> float
(** Theorem 1.2: [sqrt (2n) - log2 n - O(1)]; returned without the additive
    constant, i.e., [sqrt (2 n) - log2 n - 2], clamped at 0. *)

val oneshot_upper : int -> int
(** Theorem 1.3: [ceil (2 sqrt n)] registers suffice (Algorithm 4 with
    [M = n]). *)

val simple_upper : int -> int
(** Section 5: [ceil (n/2)] registers (Algorithms 1-2). *)

val grid_width : int -> int
(** The Section-4 proof's grid width [m = floor (sqrt (2n))]. *)

val log2_ceil : int -> int
(** [ceil (log2 n)] for [n >= 1]. *)
