(** Per-address-space page tables.

    The simulator models a page table as a radix-free mapping from
    virtual page number to page-table entry.  The x86-64 4-level walk is
    abstracted away — what Virtual Ghost's MMU checks care about is
    {e which frame} a virtual page maps to and with {e which
    permissions}, and those are modelled exactly.  (The cost of a
    hardware walk appears in the cycle model as a TLB-miss charge.)

    Page tables are passive data: all mutation goes through the SVA-OS
    MMU operations, which is where Virtual Ghost's checks live. *)

type perm = { writable : bool; user : bool; executable : bool }

type pte = { frame : int; perm : perm }

type t

val create : unit -> t

val map : t -> vpage:int64 -> pte -> unit
(** Install or replace the translation for a virtual page. *)

val unmap : t -> vpage:int64 -> unit

val lookup : t -> vpage:int64 -> pte option

val iter : t -> (int64 -> pte -> unit) -> unit

val vpages_of_frame : t -> int -> int64 list
(** Reverse lookup: every virtual page currently mapping the frame.
    The MMU checks use this to verify a frame is unmapped before it may
    become ghost memory. *)

val copy : t -> t
(** Clone (for [fork]). *)
