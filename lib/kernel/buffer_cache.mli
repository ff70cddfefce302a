(** Write-back block buffer cache between the file system and the disk.

    Blocks are 4 KiB (8 disk sectors).  Reads miss to the disk once and
    then hit in memory; writes dirty the cached copy and reach the disk
    on eviction or {!sync}.  This mirrors the paper's Postmark
    configuration ("buffered file I/O"), which is what makes the file
    system benchmarks CPU-bound and therefore sensitive to kernel
    instrumentation overhead. *)

type t

val block_bytes : int
(** 4096. *)

val create : ?capacity:int -> kmem:Kmem.t -> Disk.t -> t
(** [capacity] is the number of cached blocks (default 1024 = 4 MiB). *)

val blocks : t -> int
(** Number of cacheable blocks on the underlying disk. *)

val read : t -> int -> bytes
(** [read t b] returns a copy of block [b]. *)

val write : t -> int -> bytes -> unit
(** Replace block [b] (short buffers are zero-padded). *)

val zero : t -> int -> unit
(** [zero t b] is [write t b] of an all-zero block, charged the same,
    without a source buffer. *)

val modify : t -> int -> (bytes -> unit) -> unit
(** In-place update of a cached block (marks it dirty). *)

val view : t -> int -> (bytes -> 'a) -> 'a
(** Read-only access to a cached block without the full-block copy of
    {!read} (callers charge for whatever bytes they actually move). *)

val sync : t -> unit
(** Flush all dirty blocks. *)

val set_lock : t -> Spinlock.t -> unit
(** Install the spinlock guarding every cache operation (the kernel
    does this at boot).  Free on a 1-CPU machine; cross-core
    alternation pays the cache-line transfer. *)
