(** One configuration record for one node, subsuming the
    optional-argument sprawl of {!Vg_machine.Machine.create} plus
    {!Vg_kernel.Kernel.boot}.

    Build a config from {!default} with the [with_*] combinators
    (designed for [|>] chains):

    {[
      Node_config.(
        default |> with_cpus 4 |> with_mode Sva.Virtual_ghost
        |> with_seed "web")
      |> Node.boot
    ]}

    This record is the only place the boot defaults live:
    [Kernel.boot] takes every argument explicitly, and {!Node.boot} and
    {!Node.reboot} are its only callers.  The simulated numbers of a default boot are
    pinned by the goldens in test/golden. *)

type t = {
  cpus : int;  (** default 1 *)
  phys_frames : int;  (** default 32768 (128 MiB) *)
  disk_sectors : int;  (** default 65536 (32 MiB) *)
  spec_depth : int;  (** speculative window in macro-ops; default 0 *)
  seed : string;  (** determinises TPM + entropy; default ["node"] *)
  obs : Obs.t option;  (** default: the process-wide {!Obs.default} *)
  mode : Sva.mode;  (** default [Virtual_ghost] *)
  engine : Vg_compiler.Exec_engine.t;
      (** default [Compiled], the production engine; tests select the
          [Slots] oracle explicitly *)
  spec_mitigation : Vg_compiler.Mitigation.t;  (** default [Off] *)
  frame_limit : int option;  (** kernel frame-allocator cap; default none *)
}

val default : t

val with_cpus : int -> t -> t
val with_phys_frames : int -> t -> t
val with_disk_sectors : int -> t -> t
val with_spec_depth : int -> t -> t
val with_seed : string -> t -> t
val with_obs : Obs.t -> t -> t
val with_mode : Sva.mode -> t -> t
val with_engine : Vg_compiler.Exec_engine.t -> t -> t
val with_spec_mitigation : Vg_compiler.Mitigation.t -> t -> t
val with_frame_limit : int -> t -> t

val describe : t -> string
(** One-line human summary for logs and CLI output. *)
