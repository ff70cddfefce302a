(** The modified heap allocator of the paper's OpenSSH port ("we
    modified the FreeBSD C library so that the heap allocator functions
    allocate heap objects in ghost memory instead of in traditional
    memory", section 6).

    A real allocator over simulated memory: block headers (magic +
    size/used word) live inside the arena itself, allocation is
    first-fit with block splitting, and freeing coalesces adjacent free
    blocks.  The arena grows by whole pages through [allocgm] when the
    context is ghosting, or [mmap] otherwise — so the same application
    code runs in both of the paper's configurations.

    Corruption of the headers (e.g. by a heap overflow) is detected by
    {!check_integrity} via the magic words. *)

type t

val create : Runtime.ctx -> t
(** A fresh heap for the process. *)

val malloc : t -> int -> int64
(** Allocate at least [n] bytes; the result is 16-byte aligned.
    @raise Runtime.App_crash when the arena cannot grow. *)

val free : t -> int64 -> unit
(** Release a block.  @raise Invalid_argument on a pointer that is not
    a live allocation (double free, wild pointer). *)

val realloc : t -> int64 -> int -> int64
(** Resize, preserving min(old,new) bytes of content. *)

val live_blocks : t -> int

val check_integrity : t -> (unit, string) result
(** Walk every header; [Error] describes the first corrupt block. *)
