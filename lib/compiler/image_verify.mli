(** Load-time static verifier for linked native images.

    Virtual Ghost's guarantees rest on every kernel memory operation
    being mask-sandboxed and every return / indirect call being
    CFI-checked — yet the sandbox, CFI, optimizer and linker passes are
    ordinarily {e trusted}: a bug that drops one mask silently voids the
    ghost-memory guarantee.  This pass re-proves the instrumentation
    invariants directly on the {!Linker.link} output (the slot-allocated
    form the executor actually runs), shrinking the trusted computing
    base from the whole compiler pipeline to this one checker plus the
    executor.  It is wired into every path that admits native code:
    module load, translation-cache hits, and kernel boot.

    Five invariant classes are checked per function:

    + {b Mask} — the address operand of every load, store, atomic and
      both pointers of memcpy is {e dominated} by the ghost/SVA mask
      sequence computing into the same register slot, with no clobber in
      between.  Proven by a forward dataflow of "holds a masked
      address" facts: the exact seven-instruction lowered mask window
      grants the fact to its result slot, any other write kills it,
      and facts merge by intersection across basic-block joins.
      Immediate addresses are accepted only when masking is the
      identity on them.  Facts flow only along edges reachable from the
      function entry; a block no path reaches is verified under the
      empty fact set, so an unmasked operation stashed in dead code is
      still a violation.
    + {b Cfi_exit} — no unchecked return or indirect call exists, and
      every checked one probes the image's shared CFI label (the
      executor masks the target into kernel space before the probe).
    + {b Cfi_label} — labels are well-formed and appear exactly where
      control may legitimately land: at every function entry and at
      every call return site, and nowhere else (a stray label is an
      unintended control-transfer target).  The linker's pre-resolved
      label metadata ([label_of], [ret_label_of]) — which the executor
      trusts — must agree with the code.
    + {b Privileged} — no instruction encodes a raw privileged
      operation: no programmed I/O outside the [sva.*] intrinsics, and
      external calls only to the vetted [extern.*] / [sva.*] surface.
      ([LHalt] needs no rule here: codegen emits it for [unreachable]
      and the executor unconditionally traps on it.)
    + {b Control} — direct branches are confined: every [LJmp]/[LJz]
      target lies inside the image and inside the branching function,
      and no instruction can fall through a function's last slot into
      the next function.  The executor takes direct branches and
      fall-throughs without re-checking and without switching register
      frames, so a forged cross-function transfer would run one
      function's code against another function's registers.

    The verifier is deliberately conservative: it never executes the
    image, and it rejects anything it cannot prove.  The companion
    property tests show the real pipeline's output (all optimisation
    levels) always proves clean — no false positives. *)

type invariant = Mask | Cfi_exit | Cfi_label | Privileged | Control | Policy | Spec

type violation = {
  func : string;  (** owning function, or ["<image>"] *)
  slot : int;  (** lcode index of the offending instruction *)
  invariant : invariant;
  message : string;
}

val pp_violation : Format.formatter -> violation -> unit
(** ["sys_read: slot 12 (sys_read+9): [mask] ..."]. *)

type func_report = {
  fr_name : string;
  fr_mem_ops : int;  (** memory operands proven masked *)
  fr_cfi_exits : int;  (** checked returns + checked indirect calls *)
  fr_violations : violation list;
}

type report = { image_ok : bool; per_func : func_report list }

val check : ?mitigation:Mitigation.t -> Linker.image -> (unit, violation list) result
(** Prove all five invariant classes — plus, when [mitigation] is not
    [Off], the {b Spec} class: under [Safe_mask] every mask window must
    be the branchless nine-instruction form (a predicated window is a
    violation even though it proves the architectural mask); under
    [Fence] every load, store, atomic and memcpy must be immediately
    preceded by an lfence.  Either mask-window form grants the Mask
    fact under any mitigation.  Violations are ordered by slot; [Ok ()]
    means every function of the image is proven. *)

val report : ?mitigation:Mitigation.t -> Linker.image -> report
(** Per-function breakdown of the same analysis, for [vgsim verify]. *)

val pp_report : Format.formatter -> report -> unit

val cost_cycles : Linker.image -> int
(** Simulated cycle cost of verifying this image (charged once at boot
    for the kernel's own image): two cycles per code slot — one to
    fetch/decode, one for the dataflow bookkeeping. *)

val check_policy :
  resolve:(string -> int option) ->
  n:int ->
  expected:Sfip.graph ->
  Linker.image ->
  (unit, violation list) result
(** The sixth invariant class ({!Policy}): re-extract the syscall-flow
    graph from the image with {!Sfip.extract} and require it to equal
    the graph the signed blob carried.  Proves a profiled image cannot
    ship a graph more permissive (or just different) than its code. *)
