(** AES-128 block cipher (FIPS 197).

    This is the cipher the Virtual Ghost prototype hard-codes as the
    application key algorithm ("a 128-bit AES application key is
    hard-coded into SVA-OS for our experiments", Section 5).  The S-box
    and its inverse are derived at module initialisation from the GF(2^8)
    definition rather than transcribed, eliminating table typos. *)

type key
(** Expanded key schedule. *)

val expand : bytes -> key
(** [expand k] expands a 16-byte key.
    @raise Invalid_argument if [k] is not 16 bytes. *)

val encrypt_block : key -> bytes -> bytes
(** [encrypt_block k plain] encrypts one 16-byte block. *)

val decrypt_block : key -> bytes -> bytes
(** [decrypt_block k cipher] decrypts one 16-byte block. *)
