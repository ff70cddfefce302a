(** The simulated native instruction set that the Virtual Ghost
    compiler lowers virtual-ISA code into.

    A code image is a flat array of instructions.  Each instruction slot
    occupies {!slot_bytes} bytes of the kernel-code virtual range, so
    instruction indexes map to virtual addresses; function symbols
    resolve to the address of their entry slot.  Control flow inside an
    image uses absolute slot indexes (resolved at code generation).

    Control-flow-integrity artifacts are first-class instructions:
    {!constructor:ninstr.NCfiLabel} is an executable no-op carrying a
    label, and the [*_checked] forms of return and indirect call embody
    the check-and-mask sequences the CFI pass inserts.  An image
    compiled without Virtual Ghost simply never contains them. *)

type operand = Reg of string | Imm of int64

type ninstr =
  | NMov of { dst : string; src : operand }
  | NBin of { dst : string; op : Ir.binop; a : operand; b : operand }
  | NCmp of { dst : string; op : Ir.cmp; a : operand; b : operand }
  | NSelect of { dst : string; cond : operand; if_true : operand; if_false : operand }
  | NLoad of { dst : string; addr : operand; width : Ir.width }
  | NStore of { src : operand; addr : operand; width : Ir.width }
  | NMemcpy of { dst : operand; src : operand; len : operand }
  | NAtomic of { dst : string; op : Ir.binop; addr : operand; operand_ : operand; width : Ir.width }
  | NJmp of int
  | NJz of { cond : operand; target : int }
      (** Jump to [target] when [cond] is zero, else fall through. *)
  | NCall of { dst : string option; target : int; args : operand list }
  | NCallExtern of { dst : string option; name : string; args : operand list }
  | NCallIndirect of { dst : string option; target : operand; args : operand list }
  | NCallIndirectChecked of { dst : string option; target : operand; args : operand list; label : int32 }
      (** Masks the target into kernel space, requires the destination
          slot to be [NCfiLabel label]. *)
  | NRet of operand option
  | NRetChecked of { value : operand option; label : int32 }
      (** Like [NRet] but validates the return site's CFI label. *)
  | NCfiLabel of int32
  | NIoRead of { dst : string; port : operand }
  | NIoWrite of { port : operand; src : operand }
  | NFence
      (** Speculation barrier; one slot, drains transient windows. *)
  | NHalt

type symbol = {
  name : string;
  entry : int;  (** entry slot index *)
  params : string list;  (** parameter register names, for call binding *)
}

type image = {
  base : int64;  (** virtual address of slot 0 *)
  code : ninstr array;
  symbols : symbol list;
}

val slot_bytes : int
(** Bytes of address space per instruction slot (16). *)

val addr_of_index : image -> int -> int64
val index_of_addr : image -> int64 -> int option
(** [None] if the address is outside the image or misaligned. *)

val find_symbol : image -> string -> symbol option
val symbol_of_index : image -> int -> symbol option
(** The function whose entry slot is exactly this index. *)

val addr_of_symbol : image -> string -> int64 option

val count : image -> (ninstr -> bool) -> int
(** Number of instructions satisfying a predicate; used by tests and
    overhead reports. *)
