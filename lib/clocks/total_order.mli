(** Totally-ordered broadcast from Lamport clocks (Lamport 1978): nodes
    stamp broadcasts with their logical clocks; a message is delivered when
    it is minimal in the pending set by (timestamp, origin) and every node
    has acknowledged it.  With FIFO channels all nodes deliver the same
    sequence — the classic state-machine-replication primitive, and the
    message-passing mirror of the paper's shared-memory timestamp
    objects. *)

type payload = { origin : int; seq : int; data : int }

type msg =
  | Bcast of { ts : int; payload : payload }
  | Ack of { ts : int; payload : payload; from : int }

type state

val broadcast : state -> int -> state * (int * msg) list
(** Stamp and broadcast a new message carrying the given data. *)

module Behaviour :
  Mp.Net.BEHAVIOUR with type state = state and type msg = msg
(** The node behaviour: internal events broadcast fresh messages, receives
    acknowledge on first sight and deliver what becomes stable. *)

module Net : module type of Mp.Net.Make (Behaviour)

type report = {
  sequences : (int * payload) list array;
      (** per node: delivered (timestamp, message), oldest first *)
  agree : bool;
      (** every pair of per-node sequences agrees (one is a prefix of the
          other) *)
  total_delivered : int;
}

val run : n:int -> rounds:int -> seed:int -> report
(** Random execution over FIFO channels ([rounds] scheduling decisions plus
    a final drain), reporting the delivery sequences. *)
