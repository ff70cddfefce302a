(** Imperative construction of {!Ir} programs.

    The builder keeps a current function and current block; instruction
    helpers append to the current block and return the destination
    register as a {!Ir.value} so calls compose:

    {[
      let b = Builder.create () in
      Builder.func b "double" ~params:[ "x" ];
      let two = Ir.Imm 2L in
      let r = Builder.bin b Ir.Mul (Ir.Reg "x") two in
      Builder.ret b (Some r);
      let program = Builder.program b
    ]} *)

type t

val create : unit -> t

val func : t -> string -> params:Ir.reg list -> unit
(** Start a new function; opens an implicit entry block ["entry"]. *)

val block : t -> Ir.label -> unit
(** Finish the current block (it must already be terminated) and open a
    new one. *)

val bin : t -> Ir.binop -> Ir.value -> Ir.value -> Ir.value
val cmp : t -> Ir.cmp -> Ir.value -> Ir.value -> Ir.value
val select : t -> Ir.value -> Ir.value -> Ir.value -> Ir.value
val load : t -> ?width:Ir.width -> Ir.value -> Ir.value
val store : t -> ?width:Ir.width -> src:Ir.value -> addr:Ir.value -> unit -> unit
val memcpy : t -> dst:Ir.value -> src:Ir.value -> len:Ir.value -> unit
val atomic_rmw : t -> ?width:Ir.width -> Ir.binop -> addr:Ir.value -> Ir.value -> Ir.value
val call : t -> string -> Ir.value list -> Ir.value
(** Call with a result register. *)

val call_void : t -> string -> Ir.value list -> unit
val call_indirect : t -> Ir.value -> Ir.value list -> Ir.value
val io_read : t -> Ir.value -> Ir.value
val io_write : t -> port:Ir.value -> Ir.value -> unit

val ret : t -> Ir.value option -> unit
val br : t -> Ir.label -> unit
val cbr : t -> Ir.value -> Ir.label -> Ir.label -> unit
val unreachable : t -> unit

val program : t -> Ir.program
(** Finish construction. The current block must be terminated.
    @raise Failure if any block lacks a terminator. *)
