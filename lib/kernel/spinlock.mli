(** Kernel spinlocks over the simulated cores.

    Cores interleave at syscall granularity, so what a spinlock costs
    here is what it costs on real SMP hardware in the uncontended-
    but-shared case: the coherence miss when the lock's cache line
    migrates between cores.  Cross-core acquisition charges
    {!Cost.lock_transfer} and emits a [Lock_contend] event; same-core
    reacquisition — and {e everything} on a 1-CPU machine — is free,
    exactly as uniprocessor kernel builds compile spinlocks away.

    Ownership is enforced: acquiring a held lock or releasing one you
    do not hold raises {!Error} (a kernel bug, loudly). *)

type t

exception Error of string

val create : Machine.t -> name:string -> t

val acquire : t -> unit
(** @raise Error if the lock is already held. *)

val release : t -> unit
(** @raise Error if the current core does not hold the lock. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** [acquire]; run; [release] (also on exception). *)

val holder : t -> int option
(** The core inside the critical section, if any. *)

val held_by_current : t -> bool
(** Does the current core hold the lock?  (Used by subsystems whose
    internal operations nest — same-core nesting is not contention.) *)

val transfers : t -> int
(** How many acquisitions paid the cross-core cache-line transfer. *)
