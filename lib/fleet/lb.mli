(** The fleet front-end's balancing policy: pure bookkeeping, no
    machine state.  Both policies are deterministic — ties break
    toward the lowest node id — so fleet runs replay exactly. *)

type policy = Round_robin | Least_connections

val policy_to_string : policy -> string
val policy_of_string : string -> policy option

type t

val create : nodes:int -> policy -> t
val policy : t -> policy

val set_up : t -> int -> bool -> unit
(** Admit ([true]) or drain ([false]) a node: a drained node gets no
    new assignments but keeps its in-flight count until
    {!complete}d. *)

val is_up : t -> int -> bool

val assign : t -> int option
(** Pick a node for one request ([None] when every node is drained)
    and account it as in flight. *)

val complete : t -> int -> unit
(** A request assigned to this node finished. *)

val assigned : t -> int -> int
(** Requests ever assigned to the node. *)
