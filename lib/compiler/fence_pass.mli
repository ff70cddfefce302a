(** The fence Spectre mitigation (compiler pass).

    Inserts an {!Ir.instr.Fence} immediately before every memory
    operation of sandbox-instrumented kernel IR, so the lowered shape
    is [mask window; lfence; access].  The lfence ends any transient
    window before the access can issue, making the classic predicated
    mask sequence speculation-safe at the cost of one pipeline drain
    ({!fence_cycles}) per memory operand.  Applied by
    {!Pipeline.compile_kernel_code} when the kernel is booted with
    [--mitigation fence]. *)

val fence_cycles : int
(** Cycles one executed lfence charges under the
    {!Vg_obs.Obs.Tag.Spec} tag (12). *)

val instrument_program : Ir.program -> Ir.program
