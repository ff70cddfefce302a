(** Simulated physical memory.

    Memory is organised as 4 KiB frames, allocated lazily so a machine
    can be configured with gigabytes of physical memory without paying
    for it up front.  Addresses are physical byte addresses; accesses
    must not cross a frame boundary (the MMU hands out frame-aligned
    regions, and the simulator's accessors split larger transfers). *)

type t

val create : frames:int -> t
(** [create ~frames] makes a memory of [frames] * 4 KiB bytes. *)

val frames : t -> int

exception Bad_physical_address of int64

val read : t -> addr:int64 -> len:int -> int64
(** Little-endian load of [len] bytes (1, 2, 4 or 8), zero-extended.
    @raise Bad_physical_address out of range or crossing a frame. *)

val write : t -> addr:int64 -> len:int -> int64 -> unit
(** Little-endian truncating store. *)

val blit_to : t -> addr:int64 -> bytes -> off:int -> len:int -> unit
(** [blit_to t ~addr dst ~off ~len] copies [len] bytes at physical
    [addr] into [dst] at [off]; may cross frame boundaries. *)

val blit_from : t -> addr:int64 -> bytes -> off:int -> len:int -> unit
(** [blit_from t ~addr src ~off ~len] copies [len] bytes of [src] from
    [off] to physical [addr]; may cross frame boundaries. *)

val read_bytes : t -> addr:int64 -> len:int -> bytes
(** Bulk read; may cross frame boundaries. *)

val write_bytes : t -> addr:int64 -> bytes -> unit
(** Bulk write; may cross frame boundaries. *)

val zero_frame : t -> int -> unit
(** Clear one frame — used when ghost frames change hands so data never
    leaks between owners. *)

val frame_is_allocated : t -> int -> bool
(** Whether the frame has been touched (backing storage exists). *)
