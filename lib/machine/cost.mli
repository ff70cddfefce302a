(** The simulator's cycle cost model.

    Absolute values approximate the paper's testbed (Core i7-3770 at
    3.4 GHz, GbE network, SATA SSD) only loosely; their purpose is to
    make the {e relative} costs realistic: per-instruction work versus
    trap overhead versus device latencies versus wire time.  The
    reproduction targets the shape of the paper's results, and these
    constants are the knobs the shape rests on.  All values are CPU
    cycles unless stated otherwise. *)

val cpu_hz : float
(** 3.4 GHz, matching the paper's machine. *)

val mem_access : int
(** Base cost of one kernel/user memory access that hits the TLB. *)

val tlb_miss : int
(** Additional cost of a hardware page-table walk. *)

val sandbox_mask : int
(** Extra cycles per kernel memory operand in a Virtual Ghost build:
    the compare/or/select ghost mask plus the SVA-internal-memory
    check (7 extra instructions, paper section 5). *)

val cfi_call : int
(** Extra cycles per kernel function entry/exit pair under CFI
    (label fetch + compare + target masking). *)

val trap_entry : int
(** Hardware trap/interrupt entry + native kernel save/restore. *)

val vg_trap_extra : int
(** Extra trap cost in a Virtual Ghost build: saving the Interrupt
    Context into SVA-internal memory via the IST and zeroing
    general-purpose registers before the kernel sees them. *)

val syscall_return : int
(** Return-to-user cost (shared by both builds). *)

val context_switch : int
(** Scheduler context-switch cost excluding TLB refill. *)

val page_fault_hw : int
(** Hardware fault delivery cost before any handler runs. *)

val zero_page : int
(** Zeroing one 4 KiB frame. *)

val disk_latency : int
(** Per-operation SSD latency. *)

val disk_per_byte : int
(** SSD transfer cost per byte. *)

val nic_per_byte : int
(** Gigabit wire time per byte (~27 cycles at 3.4 GHz). *)

val nic_per_packet : int
(** Per-packet driver + interrupt overhead. *)

val tcp_handshake : int
(** Connection-establishment round trips charged by request
    generators (ApacheBench-style clients open a fresh connection per
    request). *)

val aes_per_byte : int
(** Software AES cost, charged for ghost-page swap encryption and for
    the Overshadow/InkTag-style encrypt-on-access ablation. *)

val sha_per_byte : int
(** Software hashing cost for page checksums. *)

val timer_irq : int
(** Local-APIC timer interrupt delivery + acknowledge on one core
    (trap cost excluded — the tick is serviced at a trap boundary). *)

val ipi_send : int
(** Sending one inter-processor interrupt (ICR write + bus). *)

val ipi_deliver : int
(** Receiving an IPI on a remote core: interrupt delivery plus the
    TLB-invalidation work of a shootdown. *)

val lock_transfer : int
(** Cache-line transfer when a spinlock last held on another core is
    acquired (coherence miss).  Same-core reacquisition is free — a
    uniprocessor kernel compiles spinlocks away entirely. *)

val sva_swap_smp : int
(** Extra cost of [sva.swap.integer] on a multi-CPU machine: the VM's
    cross-CPU run-state check that refuses to resume a thread already
    live on another core. *)

val cache_miss : int
(** Extra cost of a data access that misses the simulated cache-line
    state.  Only charged on machines created with a non-zero
    speculation depth — the cache side channel does not exist (and
    costs nothing) otherwise. *)

val copy_cycles : int -> int
(** [copy_cycles n] is the cost of copying [n] bytes. *)

val to_seconds : int -> float
(** Convert cycles to seconds at {!cpu_hz}. *)

val to_microseconds : int -> float
