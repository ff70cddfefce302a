(** A minimal connection-oriented network stack over the simulated NIC.

    Frames carry a one-byte type (SYN / DATA / FIN), a connection id and
    a port.  The kernel side demultiplexes received frames into
    per-connection inboxes and listener accept queues; {!module:Remote}
    is the matching client-side library the benchmark harness uses to
    play the iMac on the other end of the paper's dedicated gigabit
    link.  Wire time is charged by the NIC on transmit.

    A second, optional link class is the {e fleet fabric}: a dedicated
    NIC pair per node wired into a software switch
    ({!Vg_fleet.Fleet}).  Fabric frames prepend a 4-byte peer-node
    header to the ordinary frame; the classic wire format — and every
    cycle golden that depends on it — is untouched.  Both destinations
    are named by one {!addr} type so applications never special-case
    cross-node peers. *)

type t

(** {1 Addresses}

    The unified destination type: [Local port] is a listener on this
    machine's harness wire (the historical [connect ~port] path);
    [Peer {node; port}] is a listener on another fleet node reached
    over the fabric. *)

type addr = Local of int | Peer of { node : int; port : int }

val addr_to_wire : addr -> int64
(** Encode an address into one syscall argument: low 16 bits port,
    higher bits [node + 1] (zero for [Local]).  [Local port] encodes to
    exactly [port], so the syscall ABI of the pre-fleet form — and every
    SFIP profile over it — is unchanged. *)

val addr_of_wire : int64 -> addr
(** Inverse of {!addr_to_wire}. *)

val create : kmem:Kmem.t -> Nic.t -> t

val attach_fabric : t -> node:int -> Nic.t -> pump:(unit -> unit) -> unit
(** Plug this stack into a fleet fabric: [node] is our fleet-wide node
    id, the NIC is our side of a dedicated {!Nic.pair} into the switch,
    and [pump] runs the switch's forwarding loop (called from {!poll}
    before draining the fabric port). *)

val listen : t -> port:int -> unit Errno.result
(** Open a listener; [EEXIST] if the port is taken. *)

val poll : t -> unit
(** Drain the NIC receive queue into inboxes/accept queues (the
    driver's interrupt handler; charged per frame).  With a fabric
    attached, also pumps the switch and drains the fabric port. *)

val accept : t -> port:int -> int option
(** Pop a pending connection id, polling first. *)

(** {1 Readiness (the poll syscall's view)} *)

val pending_accept : t -> port:int -> bool
(** A connection is waiting in the backlog (drains the NIC first;
    consumes nothing). *)

val conn_readable : t -> conn:int -> bool
(** Bytes are buffered or the peer has closed (EOF is readable). *)

val listen_wq : t -> port:int -> Waitq.t option
(** Woken on every SYN demuxed into this port's backlog. *)

val conn_wq : t -> conn:int -> Waitq.t option
(** Woken when data or FIN arrives on the connection. *)

val send : t -> conn:int -> bytes -> int Errno.result
(** Transmit data on a connection (routed over the link — wire or
    fabric — the connection was made on). *)

val recv : t -> conn:int -> int -> bytes Errno.result
(** Receive up to [n] bytes; [EAGAIN] when none pending and the peer
    has not closed; [Ok empty] after FIN. *)

val close : t -> conn:int -> unit
(** Send FIN and drop local state (pending inbox data is discarded). *)

val connect_to : t -> addr -> int Errno.result
(** Outbound connection to a unified address: allocate a connection id
    and send SYN over the right link.  [Peer _] with no fabric attached
    is [ECONNREFUSED].  [Local port] never fails and is
    cycle-identical to the historical {!connect}. *)

val connect : t -> port:int -> int
(** [connect t ~port] = [connect_to t (Local port)], kept as a compat
    shim for the pre-fleet API; the remote harness answers via
    {!Remote.accept}. *)

(** Client-side endpoint helpers (run "on the other machine"): they
    speak the same frame format directly on the remote NIC endpoint. *)
module Remote : sig
  type endpoint

  val connect : Nic.t -> port:int -> endpoint

  val accept : Nic.t -> endpoint option
  (** Server side of an outbound kernel connection: harvest a SYN
      frame, if one arrived. *)

  val send : endpoint -> bytes -> unit
  val recv : endpoint -> bytes option
  (** Pop the next data frame payload, if any ([None] = nothing yet). *)

  val recv_all_available : endpoint -> bytes
  val close : endpoint -> unit
end
