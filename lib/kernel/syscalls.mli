(** The system-call layer.

    Every call performs the full trap protocol: context switch to the
    calling process if needed, {!Sva.enter_trap} (Interrupt Context
    save — into SVA memory under Virtual Ghost — plus register
    zeroing), instrumented dispatch work, the handler, result
    write-back into the saved context, and {!Sva.return_from_trap}.
    Buffer arguments are user virtual addresses: the kernel moves data
    with its instrumented accessors, so a pointer into ghost memory
    passed to a Virtual Ghost kernel simply does not reach the
    application's data (which is why the ghosting libc wrappers copy
    through traditional memory).

    Dispatch is unified over the numbered ABI ({!Syscall_abi}): every
    register-argument call runs through {!Dispatch.run} — shared by
    the typed wrappers here, the batched submission ring
    ({!ring_enter}) and loadable-module overrides ({!Module_loader},
    keyed by {!Syscall_abi.Sysno.t}) — so an overridden call behaves
    identically whether it arrives by trap or by ring, and every
    result crosses the boundary through the single {!Syscall_abi}
    codec.  This module registers the builtin {!Syscall_abi.Entry}
    records into {!Dispatch} at initialisation.

    Syscall-flow integrity: processes carrying a {!Syscall_policy} get
    every call — numbered or typed-only, trap or ring — checked
    against their transition graph; out-of-policy sequences kill the
    process with one [Security{sfip}] event and [ESFIP].  [exit]
    remains always-allowed, and unprofiled processes are charged
    nothing. *)

type open_flags = { create : bool; truncate : bool; append : bool }

val rdonly : open_flags
val creat_trunc : open_flags

(** {1 Files} *)

val open_ : Kernel.t -> Proc.t -> string -> open_flags -> int Errno.result
val close : Kernel.t -> Proc.t -> int -> unit Errno.result
val read : Kernel.t -> Proc.t -> fd:int -> buf:int64 -> len:int -> int Errno.result
val write : Kernel.t -> Proc.t -> fd:int -> buf:int64 -> len:int -> int Errno.result
val lseek : Kernel.t -> Proc.t -> fd:int -> pos:int -> int Errno.result
val unlink : Kernel.t -> Proc.t -> string -> unit Errno.result
val mkdir : Kernel.t -> Proc.t -> string -> unit Errno.result
val stat : Kernel.t -> Proc.t -> string -> Diskfs.stat Errno.result
val rename : Kernel.t -> Proc.t -> src:string -> dst:string -> unit Errno.result
val fstat : Kernel.t -> Proc.t -> fd:int -> Diskfs.stat Errno.result
val dup2 : Kernel.t -> Proc.t -> src:int -> dst:int -> unit Errno.result
(** Make descriptor [dst] refer to the same open object as [src]
    (closing whatever [dst] held). *)

val readdir : Kernel.t -> Proc.t -> string -> (string * int) list Errno.result
(** Directory listing of a path (getdents-style). *)

val fsync : Kernel.t -> Proc.t -> unit Errno.result

(** {1 Processes} *)

val getpid : Kernel.t -> Proc.t -> int
(** Also the "null syscall" of the LMBench table. *)

val fork : Kernel.t -> Proc.t -> Proc.t Errno.result
(** Returns the child process object (the runtime decides when its
    closure runs). *)

val execve : Kernel.t -> Proc.t -> Appimage.t -> unit Errno.result
(** Copies the image text into user memory and reinitialises the
    Interrupt Context through the VM (signature check, key recovery). *)

val exit_ : Kernel.t -> Proc.t -> int -> unit

val wait : ?block:bool -> Kernel.t -> Proc.t -> (int * int) Errno.result
(** Reap a zombie child: [Ok (pid, status)]; [ECHILD] with none.
    Default [block:false] keeps the historical contract — [EAGAIN]
    while children run (LMBench drives the reap loop itself).  With
    [block:true] the caller sleeps on the kernel's child waitqueue
    until a child exits (requires the {!Sched} block hook; without a
    scheduler it still returns [EAGAIN]). *)

(** {1 Memory} *)

val mmap : Kernel.t -> Proc.t -> len:int -> int64 Errno.result
(** Anonymous mapping; returns its base address. *)

val munmap : Kernel.t -> Proc.t -> addr:int64 -> len:int -> unit Errno.result

val allocgm : Kernel.t -> Proc.t -> va:int64 -> pages:int -> unit Errno.result
(** Ghost-memory allocation: the kernel supplies frames and the VM
    checks, zeroes and maps them. *)

val freegm : Kernel.t -> Proc.t -> va:int64 -> pages:int -> unit Errno.result

(** {1 Signals} *)

val signal : Kernel.t -> Proc.t -> signum:int -> handler:int64 -> unit Errno.result
val kill : Kernel.t -> Proc.t -> pid:int -> signum:int -> unit Errno.result
(** Delivers via [sva.ipush.function]; under Virtual Ghost an
    unregistered handler target is refused by the VM (the delivery is
    dropped and logged). *)

val sigreturn : Kernel.t -> Proc.t -> unit Errno.result

(** {1 Pipes, sockets, select} *)

val pipe : Kernel.t -> Proc.t -> (int * int) Errno.result
val listen : Kernel.t -> Proc.t -> port:int -> int Errno.result
val accept : Kernel.t -> Proc.t -> fd:int -> int Errno.result
(** [EAGAIN] when no connection is pending. *)

val connect_to : Kernel.t -> Proc.t -> Netstack.addr -> int Errno.result
(** Outbound connection to a unified address — [Local port] is the far
    harness NIC endpoint, [Peer {node; port}] a fleet sibling over the
    fabric; returns a connected socket descriptor.  [ECONNREFUSED] for
    a [Peer] address when no fabric is attached. *)

val connect : Kernel.t -> Proc.t -> port:int -> int Errno.result
(** [connect k proc ~port] = [connect_to k proc (Local port)]. *)

val send : Kernel.t -> Proc.t -> fd:int -> buf:int64 -> len:int -> int Errno.result
val recv : Kernel.t -> Proc.t -> fd:int -> buf:int64 -> len:int -> int Errno.result
val select : Kernel.t -> Proc.t -> int list -> int list Errno.result
(** Subset of the given descriptors that are ready, in one
    non-consuming level-triggered scan (never blocks). *)

val poll : Kernel.t -> Proc.t -> int list -> int list Errno.result
(** Level-triggered readiness over a descriptor set, backed by kernel
    waitqueues.  An empty set returns [Ok []] at once.  When nothing
    is ready and the {!Sched} block hook is installed, the caller
    sleeps on every descriptor's waitqueue and re-scans on wakeup;
    without a scheduler it degrades to one scan.  Readiness is
    non-consuming: a listener with a pending connection stays ready
    until accepted. *)

(** {1 The submission ring} *)

val ring_enter :
  Kernel.t -> Proc.t -> ring:int64 -> depth:int -> to_submit:int -> int Errno.result
(** One trap, many dispatches: consume up to [to_submit] submission
    entries from the ring at traditional-memory address [ring] (layout
    {!Syscall_ring}, [depth] slots), run each through the numbered
    dispatch, and write ABI-encoded completions.  Returns the number
    of entries consumed.  [EFAULT] if [ring] is not a traditional user
    address; entry {e buffers} pointing into ghost memory are defused
    by the instrumented accessors exactly as in a direct call. *)

(** {1 Module machinery} *)

val register_builtin_externs : Kernel.t -> unit
(** Install the kernel helper API modules link against:
    [extern.genuine_read], [extern.klog], [extern.kmmap],
    [extern.copyout], [extern.signal_install], [extern.kill],
    [extern.open_for_attacker], [extern.io_write]. *)
