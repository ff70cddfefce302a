(** Signed native-code translation cache.

    The SVA VM translates virtual-ISA code ahead of time and "caches and
    signs the translations" (paper section 4.2): the operating system
    may store translated images on disk, but the VM only executes an
    image whose signature verifies under the VM's own MAC key — a
    hostile OS cannot inject or patch native code through the cache.

    Since format version 2 the cache stores the {e linked}
    (slot-allocated, executor-ready) form produced by {!Linker.link}:
    register allocation and symbol/label resolution happen once at
    translation time and are amortised across every execution of the
    cached image.  Format version 3 additionally records whether the
    image claims to be instrumented, and re-proves the instrumentation
    invariants with {!Image_verify} on {e every} cache hit: the
    signature says "the VM produced these bytes", the verifier says
    "these bytes uphold the sandbox and CFI invariants" — so a
    signed-but-malformed image (one the pipeline mis-instrumented at
    translation time, whether by bug or by compromise) is refused with
    {!Rejected_by_verifier} instead of executing.  Images are
    serialised with [Marshal], versioned, and the signature is
    HMAC-SHA256 over the serialised bytes.

    Trust boundary: [Marshal] is memory-safe only on trusted input, so
    the HMAC — checked {e before} any decoding — is the integrity
    boundary for the bytes themselves.  The verifier hardens the system
    against images that were honestly serialised but wrongly
    instrumented; it is {e not} a defence against arbitrary
    attacker-crafted bytes signed under a stolen MAC key, which could
    corrupt the VM inside [Marshal.from_bytes] before verification
    runs. *)

type t

val create : key:bytes -> t
(** [create ~key] builds a cache trusting signatures under [key]
    (held in SVA-internal memory in the full system). *)

type signed_image = { blob : bytes; tag : bytes }

type find_error =
  | Absent  (** no entry under that name *)
  | Bad_signature  (** blob or tag modified, or signed under another key *)
  | Bad_format  (** verified blob of a different serialisation format version *)
  | Rejected_by_verifier of Image_verify.violation list
      (** the signature verified but the image does not uphold the
          instrumentation invariants *)

val describe_find_error : find_error -> string

val set_syscall_resolver : t -> n:int -> (string -> int option) -> unit
(** Bind the syscall table this cache re-proves policies against: [n]
    is the table size, the function maps extern names (["extern.read"],
    ["sva.foo"]) to syscall numbers.  The kernel calls this once at
    boot; until it is bound, any policy-carrying blob is refused
    (fail closed). *)

val set_mitigation : t -> Mitigation.t -> unit
(** Bind the Spectre mitigation this kernel runs under (default
    [Off]); the kernel calls this once at boot.  Every instrumented
    blob must carry exactly this mitigation — an honestly signed
    translation for another configuration is refused with a [Spec]
    violation — and verification proves the corresponding
    {!Image_verify} Spec invariant. *)

val sign :
  t ->
  instrumented:bool ->
  ?mitigation:Mitigation.t ->
  ?sfip:Sfip.graph ->
  Linker.image ->
  signed_image

val verify_and_load : t -> signed_image -> (Linker.image, find_error) result
(** Check the HMAC, the format version, for instrumented images the
    {!Image_verify} invariants, and for policy-carrying images the
    {!Image_verify.check_policy} re-extraction. *)

val add :
  t ->
  name:string ->
  instrumented:bool ->
  ?mitigation:Mitigation.t ->
  ?sfip:Sfip.graph ->
  Linker.image ->
  unit
(** Sign and retain an image under a name (e.g. "kernel",
    "module.rootkit").  [instrumented] records whether the image must
    re-prove the sandbox/CFI invariants on every load; [mitigation]
    (default [Off]) records the speculation configuration it was
    compiled under; [sfip] embeds a syscall-flow graph, re-proven
    against the code on every load. *)

val find : t -> name:string -> (Linker.image, find_error) result
(** Re-verify the stored signature (and, for instrumented images, the
    instrumentation invariants) and return the image.  The signature is
    re-checked on every call; the verifier pass is memoized per process
    by the blob's HMAC tag, so repeated loads of the same signed
    translation pay its host time once (simulated Verify cycles are
    charged by the kernel per load and are unaffected). *)

val find_with_policy :
  t -> name:string -> (Linker.image * Sfip.graph option, find_error) result
(** Like {!find}, also yielding the syscall-flow graph the signed blob
    carried (already re-proven against the code by the load path). *)

val policy : t -> name:string -> (Sfip.graph option, find_error) result
(** Just the (re-proven) carried graph of a cached translation. *)

val find_compiled : t -> name:string -> (Exec_compile.t, find_error) result
(** Like {!find}, but additionally translate the image into its
    closure-compiled form ({!Exec_compile.compile}), memoized by the
    blob's HMAC tag.  This is the only route to a compiled artifact:
    closure compilation only ever runs on an image the verifier has
    accepted, which is what keeps the closure compiler outside the
    TCB. *)

val verifier_runs : t -> int
(** How many times this cache has actually run {!Image_verify.check}
    (memo misses), for tests pinning the memoization. *)

val tamper : t -> name:string -> unit
(** Testing hook simulating a hostile OS flipping a byte of a cached
    translation on disk. *)
