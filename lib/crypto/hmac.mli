(** HMAC-SHA256 (RFC 2104).

    Used by the Virtual Ghost VM to checksum swapped-out ghost pages and
    to sign cached native-code translations. *)

val mac : key:bytes -> bytes -> bytes
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key].
    Keys longer than the 64-byte block size are pre-hashed per the RFC. *)

val verify : key:bytes -> tag:bytes -> bytes -> bool
(** [verify ~key ~tag msg] recomputes the tag and compares it in
    constant time. *)

(** {2 Derived keys and streaming}

    A caller that tags many messages under one key derives it once and
    streams each message in pieces; [mac] is [derive], [start], one
    update and [finish]. *)

type key
(** A key after its ipad and opad blocks have been hashed. *)

val derive : bytes -> key

val start : key -> Sha256.ctx
(** [start k] is a fresh inner hash positioned after the ipad block:
    absorb the message into it with {!Sha256.update_sub}. *)

val finish : key -> Sha256.ctx -> bytes
(** [finish k inner] finalises [inner] (the context must not be reused)
    and returns the 32-byte tag. *)
