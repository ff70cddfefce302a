(** Interrupt Context: the program state saved when a user thread is
    interrupted by a trap, interrupt or system call (paper section 4.6).

    Where this state {e lives} is the crux of one attack vector.  On a
    conventional kernel it sits on the kernel stack, where any kernel
    code can modify the saved program counter and hijack the thread on
    resume.  Under Virtual Ghost the SVA VM saves it inside SVA-internal
    memory (reached via the x86-64 Interrupt Stack Table) and zeroes
    the general-purpose registers before the kernel runs.

    The record is the authoritative in-simulator representation; the
    serialisation functions produce the in-memory image used to mirror
    it into kernel-visible memory (native builds) or SVA-internal
    memory (Virtual Ghost builds). *)

type t = {
  mutable pc : int64;
  mutable sp : int64;
  mutable privilege : Machine.privilege;
  gprs : int64 array;  (** 16 general-purpose registers *)
}

val create : pc:int64 -> sp:int64 -> privilege:Machine.privilege -> t
(** Fresh context with zeroed registers. *)

val clone : t -> t

val byte_size : int
(** Size of the serialised image (pc, sp, privilege, 16 GPRs). *)

val to_bytes : t -> bytes
val of_bytes : bytes -> t
(** @raise Invalid_argument on a short buffer. *)
