(** Simulated gigabit Ethernet endpoint.

    Two endpoints are created as a connected pair ({!pair}); frames
    transmitted on one side appear in the other side's receive queue.
    Wire time (per-byte bandwidth cost plus per-packet overhead) is
    charged on transmit through the [charge] callback, modelling the
    dedicated GbE link of the paper's testbed.  Frames larger than the
    1500-byte MTU are split transparently for costing purposes. *)

type t

val pair : ?charge:(int -> unit) -> unit -> t * t
(** [pair ~charge ()] makes two connected endpoints; both charge wire
    time to the same account (the simulated machine's clock). *)

val transmit : t -> bytes -> unit
(** Send a datagram to the peer. *)

val receive : t -> bytes option
(** Pop the oldest pending datagram, if any. *)
