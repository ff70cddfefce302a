(** The Virtual Ghost virtual-address-space layout (paper section 5).

    Each process address space has three partitions: traditional
    user-space memory, the per-application ghost partition, and the
    shared kernel partition.  The prototype places ghost memory in the
    unused 512 GB range [0xffffff0000000000, 0xffffff8000000000) so that
    the load/store instrumentation needs only a compare and an OR with
    bit 39: kernel addresses already have bit 39 set, and ghost
    addresses become kernel addresses, so an instrumented kernel access
    aimed at ghost memory harmlessly reads the kernel's own data.

    The paper keeps SVA-internal memory inside the kernel data segment
    and zeroes addresses that fall within it; we give it a fixed
    sub-range of kernel space and instrument the same way. *)

val ghost_start : int64 (** 0xffffff0000000000 *)

val ghost_end : int64 (** 0xffffff8000000000 *)

val ghost_escape_bit : int64
(** Bit 39 (0x8000000000): ORing it into any address >= [ghost_start]
    yields a kernel address. *)

val sva_start : int64
val sva_end : int64
(** SVA VM internal memory: interrupt contexts, thread state, ghost
    page-table metadata, keys.  Instrumented kernel accesses to this
    range are redirected to address 0. *)

val kernel_code_start : int64

val kernel_data_start : int64

val in_user : int64 -> bool
val in_ghost : int64 -> bool
val in_kernel : int64 -> bool
val in_sva : int64 -> bool
val in_kernel_code : int64 -> bool

val mask_kernel_target : int64 -> int64
(** CFI target masking: force an address into kernel space (paper: the
    check "masks the target address to ensure that it is not a
    user-space address"). *)
