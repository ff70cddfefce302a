(** A booted machine + kernel pair: the only boot path.  {!boot} and
    {!reboot} are the only callers of [Kernel.boot]; the simulated
    numbers of a booted node are pinned by the goldens in
    test/golden. *)

type t

val boot : Node_config.t -> t
(** Create the machine and boot the kernel described by the config. *)

val reboot : t -> t
(** A fresh kernel on the same machine — disk, TPM and physical memory
    carry over — with the same config.  The file system is
    remounted from the disk; processes, modules and other in-memory
    kernel state do not survive.  Do not use the old node afterwards. *)

val machine : t -> Machine.t
val kernel : t -> Kernel.t
val net : t -> Netstack.t

val launch : t -> ?image:Appimage.t -> ghosting:bool -> (Runtime.ctx -> 'a) -> 'a
(** {!Runtime.launch} on this node's kernel. *)

val listen : t -> port:int -> unit Errno.result
val www : t -> path:string -> bytes -> unit Errno.result
(** Create [path] on the node's file system holding [data]. *)
