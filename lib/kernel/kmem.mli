(** The kernel's memory-access discipline.

    Every memory access the (OCaml-modelled) kernel performs goes
    through this module, which plays the role of the code the Virtual
    Ghost compiler would have emitted:

    - in a [Native_build] kernel, {!store}/{!read_bytes} translate the given
      virtual address directly — including ghost and SVA addresses,
      which is exactly the attack surface;
    - in a [Virtual_ghost] kernel, the address is first transformed by
      {e the same function the sandboxing pass implements in IR}
      ({!Vg_compiler.Sandbox_pass.masked_address}), and the extra
      instructions are charged to the cycle clock.

    Accesses that fault (e.g. a masked ghost address landing on an
    unmapped kernel page) read zero / drop the store rather than
    killing the kernel — the paper's observed behaviour is "the kernel
    simply reads unknown data out of its own address space".

    Beyond real addressed accesses, subsystems charge abstract
    instrumented work through {!work} (N memory operations of kernel
    bookkeeping whose bytes are not individually modelled) and
    {!fn_entry} (per-function CFI cost), so that instrumentation
    overhead scales with the amount of kernel code a path executes. *)

type t

(** [create ?mitigation sva] — [mitigation] (default [Off]) is the
    Spectre hardening the kernel was compiled under: it adds the
    corresponding per-memory-operand surcharge
    ({!Vg_compiler.Fence_pass.fence_cycles} under [Fence], the two
    extra mask instructions under [Safe_mask]) to every Virtual Ghost
    access and {!work} unit, charged to the [Spec] cycle tag. *)
val create : ?mitigation:Vg_compiler.Mitigation.t -> Sva.t -> t

val machine : t -> Machine.t

val store : t -> int64 -> len:int -> int64 -> unit
(** Instrumented kernel store. *)

val read_bytes : t -> int64 -> len:int -> bytes
(** Instrumented bulk read (a [memcpy] out of somewhere): masking is
    applied per page. *)

val write_bytes : t -> int64 -> bytes -> unit

val work : t -> int
  -> unit
(** [work t n] models [n] kernel memory operations on kernel-private
    data structures: charges [n * mem_access], plus [n * sandbox_mask]
    under Virtual Ghost. *)

val fn_entry : t -> unit
(** Models entering one instrumented kernel function: charges the CFI
    label/check cost under Virtual Ghost, nothing otherwise. *)
