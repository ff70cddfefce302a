(** AES-128 in counter mode, plus an encrypt-then-MAC envelope.

    CTR is the mode the Virtual Ghost VM uses for swap-page encryption
    and that the ghosted OpenSSH applications use for file encryption:
    a stream mode means ciphertext length equals plaintext length, so a
    swapped page stays exactly one page. *)

val transform : key:Aes128.key -> nonce:bytes -> bytes -> bytes
(** [transform ~key ~nonce data] encrypts (or, identically, decrypts)
    [data].  [nonce] is 8 bytes and must be unique per key; the
    remaining 8 bytes of the counter block count blocks big-endian.
    @raise Invalid_argument if the nonce is not 8 bytes. *)

val seal : key:bytes -> nonce:bytes -> bytes -> bytes
(** [seal ~key ~nonce plain] is [ciphertext || tag] where the tag is
    HMAC-SHA256 over [nonce || ciphertext] (encrypt-then-MAC).  [key] is
    a 16-byte AES key; the MAC key is derived from it by hashing. *)

val open_ : key:bytes -> nonce:bytes -> bytes -> bytes option
(** [open_ ~key ~nonce sealed] verifies the tag and returns the
    plaintext, or [None] if the envelope was tampered with. *)

val tag_size : int
(** 32: size of the HMAC trailer added by {!seal}. *)

(** {2 Derived keys and in-place envelopes}

    {!seal} and {!open_} are [derive] plus one call below on a private
    copy.  A caller that seals many buffers under one key derives it
    once and works on slices of its own buffer. *)

type key
(** The AES key schedule and the HMAC key states derived from one
    16-byte master key. *)

val derive : bytes -> key
(** @raise Invalid_argument if the master key is not 16 bytes. *)

val seal_in_place : key -> nonce:bytes -> bytes -> pos:int -> len:int -> unit
(** [seal_in_place k ~nonce buf ~pos ~len] encrypts the [len] bytes at
    [pos] in place and writes the tag into the [tag_size] bytes after
    them: the slice becomes [seal]'s output.
    @raise Invalid_argument if the slice and its tag do not fit. *)

val open_in_place : key -> nonce:bytes -> bytes -> pos:int -> len:int -> bool
(** [open_in_place k ~nonce buf ~pos ~len] checks the tag that ends the
    [len]-byte sealed slice at [pos] in constant time and, only if it
    verifies, decrypts the [len - tag_size] bytes before it in place.
    [false] (buffer untouched) on a bad tag or a slice too short or out
    of bounds. *)
