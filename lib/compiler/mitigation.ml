(* Which Spectre mitigation a kernel/module image is compiled (and
   verified, and cached) under.  Dependency-free so every layer from
   the sandbox pass to the CLI can name the configuration. *)

type t =
  | Off  (** classic predicated masking; speculation-unsafe *)
  | Fence  (** lfence between each mask window and its access *)
  | Safe_mask  (** branchless masking: the mask is a data dependency *)

let to_string = function Off -> "off" | Fence -> "fence" | Safe_mask -> "safe-mask"

let of_string = function
  | "off" | "none" -> Some Off
  | "fence" -> Some Fence
  | "safe-mask" | "safe_mask" | "safemask" -> Some Safe_mask
  | _ -> None

let to_tag = function Off -> 0 | Fence -> 1 | Safe_mask -> 2
let of_tag = function 0 -> Some Off | 1 -> Some Fence | 2 -> Some Safe_mask | _ -> None
