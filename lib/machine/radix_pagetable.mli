(** A concrete 4-level x86-64-style page table stored in simulated
    physical memory.

    The kernel and the SVA MMU checks operate on the abstract
    {!Pagetable} (virtual page -> entry), which is sufficient because
    every Virtual Ghost check concerns the {e mapping}, not the radix
    encoding.  This module is the validation model for that
    abstraction: a real table of 512-entry levels (PML4 -> PDPT -> PD
    -> PT) whose nodes live in physical frames, walked entry by entry
    exactly as the hardware would.  The machine test-suite drives both
    implementations with identical operation sequences and requires
    identical lookups — so the abstraction is justified by test, not by
    assertion.

    Entry encoding (little-endian 64-bit words):
    bit 0 present, bit 1 writable, bit 2 user, bit 63 no-execute,
    bits 12..50 frame number. *)

type t

val create : Phys_mem.t -> alloc_frame:(unit -> int option) -> t
(** [create mem ~alloc_frame] builds an empty table whose nodes are
    allocated on demand from [alloc_frame] (typically the kernel's
    frame allocator). *)

exception Out_of_frames

val map : t -> vpage:int64 -> Pagetable.pte -> unit
(** Install a translation, allocating intermediate levels as needed.
    @raise Out_of_frames if a node cannot be allocated;
    @raise Invalid_argument if the virtual page exceeds 48-bit space. *)

val unmap : t -> vpage:int64 -> unit

val lookup : t -> vpage:int64 -> Pagetable.pte option
(** A full 4-level walk through physical memory. *)

val node_frames : t -> int list
(** Every frame currently used by table nodes (root included) —
    the frames a real Virtual Ghost must protect from kernel writes. *)

val walk_length : t -> vpage:int64 -> int
(** Number of levels touched when translating (diagnostics; 0 when the
    root is empty, up to 4). *)
