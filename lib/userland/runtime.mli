(** The userland runtime: what the modified C library plus the system-
    call wrapper library give a process in the paper.

    A {!ctx} represents one running program.  Its memory truly lives in
    the simulated machine (in the process's page table, at user
    privilege); OCaml closures are the program text, registered at
    code addresses in the process's [code_map] so that control transfers
    chosen by the kernel (signal dispatch, context hijacks) execute
    whatever sits at the chosen address — including injected exploit
    code under a hostile native kernel.

    When [ghosting] is set the runtime behaves like a program compiled
    for Virtual Ghost and linked against the wrapper library:
    - the heap allocator places objects in ghost memory ([allocgm]);
    - system-call wrappers bounce data through traditional memory;
    - [mmap] results pass the Iago bit-mask
      ({!Vg_compiler.Mmap_mask_pass.masked_return});
    - [signal] registers handlers with the VM before telling the
      kernel. *)

type ctx = {
  kernel : Kernel.t;
  proc : Proc.t;
  ghosting : bool;
  mutable normal_pc : int64;  (** pc when no handler is pending *)
  mutable heap_cursor : int64;
  mutable heap_end : int64;
  mutable traditional_cursor : int64;
  mutable next_code_addr : int64;
  bounce : int64;  (** traditional scratch for wrapper copies *)
  mutable crashed : string option;
}

exception App_crash of string
(** The process "took a SIGSEGV": resumed at an address holding no
    code. *)

val launch :
  Kernel.t ->
  ?image:Appimage.t ->
  ?sfip:Syscall_policy.t ->
  ghosting:bool ->
  (ctx -> 'a) ->
  'a
(** Create a process (child of init), optionally [execve] a signed
    image into it, run the program body, then exit and reap the
    process.  [?sfip] attaches a syscall-flow policy: the process gets
    a fresh cursor over the given policy's graph (which may be shared
    — e.g. one [Record] accumulator across a pool), installed after
    [execve] so Record and Enforce runs observe identical sequences.
    An [?image] carrying its own embedded profile needs no [?sfip];
    passing one overrides the image's.
    @raise App_crash / Failure on launch errors. *)

val spawn_fiber :
  Kernel.t ->
  Sched.t ->
  ?cpu:int ->
  ?image:Appimage.t ->
  ?sfip:Syscall_policy.t ->
  ghosting:bool ->
  name:string ->
  (ctx -> unit) ->
  Proc.t
(** Like {!launch}, but as a {!Sched} fiber: the process is created
    immediately (so the caller can prepare it — e.g. inherit a
    listening socket via [Proc.add_fd]) and the body runs when the
    scheduler dispatches the fiber, preemptible at every syscall.
    Exit and reaping happen when the body returns. *)

val in_child : ctx -> Proc.t -> (ctx -> 'a) -> 'a
(** Build a context for a forked child and run its body (cooperative
    model: the child runs to completion at the point of use). *)

(** {1 User memory} *)

val poke : ctx -> int64 -> bytes -> unit
(** Write at user privilege; page faults are serviced by the kernel's
    demand-paging handler, as on hardware. *)

val peek : ctx -> int64 -> int -> bytes

val user_memcpy : ctx -> dst:int64 -> src:int64 -> len:int -> unit
(** User-level copy between two mapped regions (used by the wrapper
    library's bounce copies). *)

val bounce_bytes : int
(** Size of the wrapper library's traditional bounce buffer. *)

val ualloc : ctx -> int -> int64
(** Bump-allocate traditional user memory. *)

val galloc : ctx -> int -> int64
(** Heap allocation: ghost memory when [ghosting], else traditional
    (the paper's modified-malloc versus stock-malloc configurations).
    Grows the ghost region via [allocgm] as needed. *)

(** {1 Syscall wrappers} *)

val sys_open : ctx -> string -> Syscalls.open_flags -> int Errno.result
val sys_close : ctx -> int -> unit Errno.result

val sys_write : ctx -> fd:int -> src:int64 -> len:int -> int Errno.result
(** If [src] is in ghost memory, copy through the bounce buffer first
    (the kernel cannot read ghost memory), then invoke the kernel. *)

val sys_read : ctx -> fd:int -> dst:int64 -> len:int -> int Errno.result
(** If [dst] is ghost, receive into the bounce buffer and copy in. *)

val sys_recv : ctx -> fd:int -> buf:int64 -> len:int -> int Errno.result
(** Socket receive with the same ghost-destination bounce as
    {!sys_read} — without it the kernel's masked copyout silently
    drops the bytes for a ghosting process. *)

val sys_send : ctx -> fd:int -> buf:int64 -> len:int -> int Errno.result
(** Socket send with the same ghost-source bounce as {!sys_write}. *)

val write_string : ctx -> fd:int -> string -> int Errno.result
(** Convenience: stage a string in the heap and write it. *)

val sys_mmap : ctx -> len:int -> int64 Errno.result
(** Applies the Iago mask to the kernel's return value when
    [ghosting]. *)

val sys_signal : ctx -> signum:int -> (ctx -> int64 -> unit) -> unit Errno.result
(** The paper's [signal()] wrapper: registers the handler code address
    with the VM ([sva.permitFunction]) and then with the kernel. *)

val sys_kill : ctx -> pid:int -> signum:int -> unit Errno.result

val check_signals : ctx -> unit
(** Resume point: if the saved context's pc was redirected (signal
    dispatch or hijack), execute the code at that address and
    [sigreturn]; repeats until the context is back to normal.
    @raise App_crash if the pc aims at an address with no code. *)

(** {1 VM instructions available to applications} *)

val get_app_key : ctx -> bytes option
(** [sva.getKey]. *)

val vg_random : ctx -> int -> bytes
(** [sva.random]. *)
