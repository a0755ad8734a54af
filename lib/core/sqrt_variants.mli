(** Ablation variants of Algorithm 4's repair rule (experiment EA;
    Section 6.1 of the paper discusses both alternatives).

    {!No_repair} never overwrites invalid registers — subtly incorrect:
    the directed interleaving described in Section 6.1 (constructed in
    [test/test_ablation.ml]) makes it emit the inverted pair
    [(k, j+1)] before [(k, 1)].  {!Eager_repair} overwrites every invalid
    register — correct, but cannot write less than the paper's rule. *)

module type VARIANT = sig
  include Intf.S with type value = Sqrt.value and type result = Sqrt.result
end

module No_repair : VARIANT

module Eager_repair : VARIANT

val hunt_violation :
  (module VARIANT) -> n:int -> seeds:int -> (int * string) option
(** Searches random one-shot schedules (seeds [0 .. seeds-1]) for a
    specification violation; returns the first bad seed with the checker's
    message.  Used to document that random search essentially never finds
    the {!No_repair} bug. *)

val writes_of : (module VARIANT) -> n:int -> seed:int -> int * int
(** [(total writes, registers written)] of one checked random one-shot
    workload — the space/step cost of a repair policy. *)
