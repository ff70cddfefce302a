(** Deterministic random bit generator built on ChaCha20.

    This is the generator behind the [sva.random] trusted-entropy
    instruction (Section 4.7): the Virtual Ghost VM seeds one instance at
    boot and hands applications random bytes the OS cannot bias, which
    defeats Iago attacks through /dev/random. *)

type t

val create : seed:bytes -> t
(** [create ~seed] builds a generator.  The seed is hashed to 32 bytes,
    so any length is accepted. *)

val bytes : t -> int -> bytes
(** [bytes t n] produces [n] fresh random bytes and advances the state. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform in [0, n).  @raise Invalid_argument if
    [n <= 0]. *)

val reseed : t -> bytes -> unit
(** Mix additional entropy into the state. *)
