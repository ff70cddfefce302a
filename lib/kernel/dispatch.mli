(** The unified numbered-syscall dispatch.

    Exactly one place performs decode → policy check → handler →
    encode: {!run}.  The typed {!Syscalls} wrappers, the batched
    submission ring and loadable-module overrides all funnel through
    it, so an overridden call behaves identically whether it arrives
    by trap or by ring, and every result crosses the boundary through
    the single {!Syscall_abi} codec.

    Handlers are {!Syscall_abi.Entry} records registered by
    {!Syscalls} at module initialisation; syscalls whose arguments
    cannot be carried in registers in this simulation (paths, struct
    results, process handles) register a [None] handler and report
    [ENOSYS] when addressed by number.

    Syscall-flow integrity (SFIP) lives at this choke point: when the
    process carries a {!Syscall_policy}, {!guard} (direct calls) or
    {!precheck} (whole ring batches) vets the transition before the
    handler runs; an out-of-policy sequence kills the process with one
    [Security{sfip}] event and [ESFIP].  Unprofiled processes
    ([policy = None]) pay nothing — not even a cycle charge. *)

type origin = Trap | Ring

type handler = Kernel.t -> Proc.t -> int64 array -> int64 Errno.result
(** Builtin body: register arguments in, codec-shaped result out.
    Encoding to the result register happens in {!run}, not here. *)

type entry = handler option Syscall_abi.Entry.t

val register : entry -> unit
(** Install (or replace) the builtin entry for its number. *)

val entry : Syscall_abi.Sysno.t -> entry option
val entries : unit -> entry list
(** All registered entries, in numbering order. *)

val on_kill : (Kernel.t -> Proc.t -> unit) ref
(** Teardown hook run after an SFIP kill (set by {!Syscalls}: close
    descriptors, release ghost memory, zombie the process — but keep
    the SVA thread alive so the in-flight trap epilogue completes). *)

val guard :
  Kernel.t -> Proc.t -> origin:origin -> Syscall_abi.Sysno.t -> unit Errno.result
(** Per-call SFIP gate, also used directly by the typed-only wrappers
    (paths and struct results never reach {!run}).  [Ok ()] commits the
    transition; [Error ESFIP] means the process was just killed (one
    [Security{sfip}] event) or was already policy-killed earlier. *)

val precheck :
  Kernel.t -> Proc.t -> Syscall_abi.Sysno.t array -> unit Errno.result
(** Whole-batch SFIP gate for [ring_enter]: scan the submitted
    sequence — intra-batch transitions included — from the current
    cursor before any entry executes.  Commits nothing; pays the
    per-entry check charge for the whole batch up front, so in-policy
    entries then run through {!run} with [prechecked:true] for free.
    [Error ESFIP] — first out-of-policy entry named in the event —
    means the batch must execute nothing. *)

val run :
  Kernel.t ->
  Proc.t ->
  origin:origin ->
  ?prechecked:bool ->
  sysno:int ->
  int64 array ->
  int64
(** Execute syscall [sysno] with register arguments: validate the raw
    number ([ENOSYS] if out of table), refuse ring-submitted
    [ring_enter] (no nested ring entry), run the policy gate (skipped
    in favour of a cursor commit when [prechecked]), honour any module
    override, otherwise the registered builtin, and return the
    ABI-encoded result register.  Callers are expected to be inside a
    trap or a typed wrapper; this performs no trap protocol of its
    own. *)
