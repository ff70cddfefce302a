(** Human-readable rendering of {!Ir} programs, in an LLVM-flavoured
    textual syntax.  Used in tests and by the [vg-compile] inspection
    tool; there is no parser — programs are built with {!Builder}. *)

val program_to_string : Ir.program -> string
