(** Arbitrary-precision natural numbers.

    A minimal big-integer layer sufficient for the Virtual Ghost key
    chain: comparison, ring arithmetic, division, modular
    exponentiation and inversion, byte-string conversion and
    Miller-Rabin primality.  Values are non-negative; subtraction of a
    larger number raises. *)

type t

val one : t

val of_int : int -> t
(** @raise Invalid_argument on a negative argument. *)

val to_int : t -> int option
(** [Some n] when the value fits in an OCaml [int]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)].
    @raise Division_by_zero if [b] is zero. *)

val rem : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bit_length : t -> int
(** Number of significant bits; 0 for zero. *)

val mod_pow : base:t -> exp:t -> modulus:t -> t
(** Modular exponentiation by square-and-multiply. *)

val mod_inverse : t -> modulus:t -> t option
(** Multiplicative inverse, if the argument is coprime to the modulus. *)

val of_bytes_be : bytes -> t
val to_bytes_be : ?len:int -> t -> bytes
(** [to_bytes_be ?len v] is the big-endian encoding, left-padded with
    zeros to [len] when given.
    @raise Invalid_argument if [v] does not fit in [len] bytes. *)

val is_probable_prime : Drbg.t -> t -> bool
(** Trial division by small primes, then 24 Miller-Rabin rounds. *)

val generate_prime : Drbg.t -> bits:int -> t
(** Random probable prime with exactly [bits] bits (top bit set). *)
