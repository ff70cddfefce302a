(** RSA-style public-key operations for the Virtual Ghost key chain.

    The paper's chain of trust is: TPM storage key => Virtual Ghost
    public/private key pair => application private key => further
    application keys (Section 4.4).  This module provides the middle
    link: the Virtual Ghost VM key pair used to (a) decrypt the
    application-key section of program binaries and (b) sign/verify
    application images and cached native-code translations.

    Payloads are short (symmetric keys, digests), so encryption wraps a
    fixed-size payload with random padding rather than implementing a
    general OAEP; signatures are full-domain-hash style over SHA-256.
    This is simulation-grade cryptography: correct and tested, not
    hardened against side channels. *)

type public = { n : Bignum.t; e : Bignum.t }
type private_ = { pub : public; d : Bignum.t }

val generate : Drbg.t -> bits:int -> private_
(** [generate rng ~bits] makes a key whose modulus has [bits] bits
    ([bits] must be even and >= 128). *)

val encrypt : public -> Drbg.t -> bytes -> bytes
(** [encrypt pub rng msg] wraps [msg] (at most [modulus_bytes - 34]
    bytes) with random padding and encrypts it.
    @raise Invalid_argument if the message is too long. *)

val decrypt : private_ -> bytes -> bytes option
(** Inverse of {!encrypt}; [None] if the padding is malformed. *)

val sign : private_ -> bytes -> bytes
(** [sign priv msg] signs SHA-256([msg]). *)

val verify : public -> msg:bytes -> signature:bytes -> bool
(** Check a signature produced by {!sign}. *)

val public_to_bytes : public -> bytes
val public_of_bytes : bytes -> public option
(** Wire encoding of public keys (length-prefixed big-endian fields). *)
