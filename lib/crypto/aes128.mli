(** AES-128 block cipher (FIPS 197).

    This is the cipher the Virtual Ghost prototype hard-codes as the
    application key algorithm ("a 128-bit AES application key is
    hard-coded into SVA-OS for our experiments", Section 5).  The S-box,
    its inverse and the round T-tables (SubBytes, ShiftRows and
    MixColumns fused into four 256-entry word tables per direction) are
    all derived at module initialisation from the GF(2^8) definition
    rather than transcribed, eliminating table typos.  The state is four
    32-bit column words in unboxed [int64] locals; the tables and the
    key schedule hold one word per 8-byte slot of a [bytes] buffer. *)

type key
(** Expanded key schedule. *)

val expand : bytes -> key
(** [expand k] expands a 16-byte key.
    @raise Invalid_argument if [k] is not 16 bytes. *)

val encrypt_into : key -> bytes -> int -> bytes -> int -> unit
(** [encrypt_into k src soff dst doff] encrypts the 16-byte block at
    [src.[soff]] into [dst.[doff]] without allocating.  [src] and [dst]
    may be the same block.
    @raise Invalid_argument if either block lies outside its buffer. *)

val encrypt_block : key -> bytes -> bytes
(** [encrypt_block k plain] encrypts one 16-byte block into a fresh
    buffer. *)

val decrypt_block : key -> bytes -> bytes
(** [decrypt_block k cipher] decrypts one 16-byte block. *)
