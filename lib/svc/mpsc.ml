module type NODE = sig
  type t

  val nil : t

  val next : t -> t

  val set_next : t -> t -> unit
end

module Make (N : NODE) = struct
  type t = N.t Atomic.t  (* LIFO chain of nodes; [N.nil] = empty *)

  let create () = Atomic.make N.nil

  let rec push t node =
    let cur = Atomic.get t in
    N.set_next node cur;
    if not (Atomic.compare_and_set t cur node) then begin
      Domain.cpu_relax ();
      push t node
    end

  let rec reverse_onto acc node =
    if node == N.nil then acc
    else begin
      let next = N.next node in
      N.set_next node acc;
      reverse_onto node next
    end

  let drain t = reverse_onto N.nil (Atomic.exchange t N.nil)

  let is_empty t = Atomic.get t == N.nil
end
