(** Simulated IOMMU.

    DMA-capable devices reach physical memory only through the IOMMU.
    The SVA VM owns its configuration (the paper maps the IOMMU's
    registers exclusively into SVA-internal memory, section 4.3.3) and
    installs a frame-protection predicate that excludes ghost frames and
    SVA-internal frames; any DMA touching a protected frame is blocked.
    The kernel has no handle to {!set_protected} in a correctly wired
    system — only SVA does. *)

type t

val create : unit -> t

val set_protected : t -> (int -> bool) -> unit
(** [set_protected t p] installs the predicate: frame [f] is
    DMA-forbidden when [p f]. *)

val set_observer : t -> (int -> unit) -> unit
(** [set_observer t f] registers a callback invoked with the offending
    frame just before {!Dma_blocked} is raised, so blocked transfers can
    be reported (e.g. as observability events). *)

exception Dma_blocked of int
(** Raised (with the offending frame) when a transfer hits a protected
    frame. *)

val dma_write : t -> Phys_mem.t -> addr:int64 -> bytes -> unit
(** Device-to-memory transfer through the IOMMU.
    @raise Dma_blocked if any touched frame is protected. *)

val dma_read : t -> Phys_mem.t -> addr:int64 -> len:int -> bytes
(** Memory-to-device transfer through the IOMMU. *)
