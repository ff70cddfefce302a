(** Kernel waitqueues: the readiness layer's wakeup primitive.

    A waitqueue is a named, monotonically increasing sequence number.
    Producers ({!Pipe_dev} writes, {!Netstack} frame demux, process
    exit) call {!wake}; a blocked syscall {!subscribe}s to the queues
    guarding its descriptors, yields, and re-scans readiness only when
    {!signalled} reports that a subscribed queue advanced.  Wakeups
    never touch the simulated clock — the cycle cost of sleeping and
    re-scanning is charged by the syscalls that use the queue. *)

type t

val create : name:string -> t

val wake : t -> unit
(** Record a wakeup-worthy event (data arrived, space freed, child
    exited, endpoint closed). *)

(** {1 Subscriptions} *)

type sub
(** A snapshot of several queues' sequence numbers. *)

val subscribe : t list -> sub
val signalled : sub -> bool
(** Did any subscribed queue {!wake} since the snapshot was taken? *)
