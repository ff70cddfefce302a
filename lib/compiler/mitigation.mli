(** Spectre mitigation selection.

    Names the three speculation configurations a kernel or module image
    can be compiled under.  The choice is part of an image's identity:
    it selects the sandbox-pass variant ({!Sandbox_pass}), the extra
    fence pass ({!Fence_pass}), the invariant class the load-time
    verifier proves ({!Image_verify}), and is carried under the MAC in
    trans-cache blobs so a cached image can never be replayed into a
    differently-mitigated kernel.  Dependency-free: usable from the
    machine layer up to the CLI. *)

type t =
  | Off  (** classic predicated masking; speculation-unsafe *)
  | Fence  (** lfence between each mask window and its access *)
  | Safe_mask  (** branchless masking: the mask is a data dependency *)

val to_string : t -> string
val of_string : string -> t option

val to_tag : t -> int
(** Stable small-int encoding for serialized blobs. *)

val of_tag : int -> t option
