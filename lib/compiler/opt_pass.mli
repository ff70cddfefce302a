(** A conservative optimiser for the virtual instruction set.

    The SVA VM translates bitcode ahead of time, so it is free to
    optimise before (or after) the security instrumentation; what it
    must never do is change observable behaviour or open a hole in the
    sandboxing.  This pass performs:

    - intra-block constant propagation and folding of [Bin]/[Cmp]/
      [Select] (register constants are invalidated on redefinition, so
      non-SSA code is handled soundly);
    - algebraic identities ([x+0], [x|0], [x*1], [x&-1], [x*0]);
    - folding of conditional branches with constant conditions;
    - removal of blocks unreachable from the entry;
    - dead-code elimination of side-effect-free instructions whose
      result register is never read anywhere in the function (loads,
      stores, atomics, calls and I/O are never removed — a load can
      fault, which is observable).

    Running the optimiser {e after} {!Sandbox_pass} is safe by
    construction: the masking sequence's result feeds the rewritten
    memory operation, so it is never dead, and folding it on constant
    addresses just computes {!Sandbox_pass.masked_address} at compile
    time — the fuzz suite checks both orderings. *)

val optimize_program : Ir.program -> Ir.program
