(** Kernel pipe object: a bounded byte queue with reader/writer
    reference counts.  The scheduler is cooperative, so operations
    never block: reads from an empty pipe report [EAGAIN] while writers
    remain, end-of-file once they are gone. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 64 KiB. *)

val add_reader : t -> unit
val add_writer : t -> unit
val drop_reader : t -> unit
val drop_writer : t -> unit

val read : t -> int -> bytes Errno.result
(** [read t n] pops up to [n] bytes.  Empty pipe: [Error EAGAIN] if a
    writer exists, [Ok empty] (EOF) otherwise. *)

val write : t -> bytes -> int Errno.result
(** Appends as much as capacity allows, returning the count; [EPIPE]
    with no reader, [EAGAIN] when completely full. *)

val bytes_available : t -> int

val readable : t -> bool
(** Bytes are buffered, or EOF (no writers) — a read returns at once. *)

val writable : t -> bool
(** Space remains, or EPIPE (no readers) — a write returns at once. *)

(** {1 Readiness} *)

val read_wq : t -> Waitq.t
(** Woken when bytes arrive or the last writer leaves (EOF edge). *)

val write_wq : t -> Waitq.t
(** Woken when space frees up or the last reader leaves (EPIPE edge). *)
