(** Syscall-flow-integrity (SFIP) transition graphs.

    A graph over [n] syscall numbers: a bitset of syscalls a program may
    issue {e first}, plus an [n]×[n] bitmatrix of allowed consecutive
    pairs.  Graphs are extracted statically from linked images at
    translation time, serialized into the signed trans-cache blob
    (format v5) and into signed app images, and enforced by the kernel
    dispatcher on every numbered syscall — including across a whole ring
    batch before any entry executes.

    The compiler layer does not know the syscall table ([Syscall_abi]
    lives in [lib/kernel], above us), so extraction takes an injected
    [resolve : string -> int option] mapping extern names (e.g.
    ["extern.read"]) to syscall numbers. *)

type graph = private {
  n : int;
  entry : Bytes.t;
  matrix : Bytes.t;
}

val create : n:int -> graph
(** Empty graph over [n] syscalls.  Raises [Invalid_argument] unless
    [0 < n <= 4096]. *)

val allow_entry : graph -> int -> unit
(** Permit a syscall as the first one issued. *)

val allow : graph -> from:int -> to_:int -> unit
(** Permit the consecutive pair [from -> to_]. *)

val entry_allowed : graph -> int -> bool
(** False for out-of-range numbers. *)

val allowed : graph -> from:int -> to_:int -> bool
(** False for out-of-range numbers. *)

val equal : graph -> graph -> bool
val entry_count : graph -> int
val transition_count : graph -> int

val to_bytes : graph -> Bytes.t
(** Versioned wire form, suitable for embedding in a signed image. *)

val of_bytes : Bytes.t -> graph option
(** Strict decode: wrong magic, version, or length yields [None]. *)

val pp : ?name:(int -> string) -> Format.formatter -> graph -> unit
(** Dump entries and transitions, rendering numbers via [name]. *)

val extract :
  resolve:(string -> int option) ->
  n:int ->
  ?entries:string list ->
  Linker.image ->
  graph
(** Walk the linked code of every function: each [LCallExtern] whose
    name [resolve]s is a syscall site; direct calls apply the callee's
    (first, last, can-skip) summary; indirect calls conservatively join
    every function's summary.  Runs to an interprocedural fixpoint.
    [entries] restricts the graph's entry set to the named functions'
    first-syscalls (default: every function is a potential entry). *)
