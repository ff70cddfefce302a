(** Preemptive multi-core scheduler over effects-based fibers.

    Fibers (OCaml functions driving a process through the userland
    runtime) sit on per-CPU run queues.  {!run} repeatedly picks the
    core with the lowest simulated clock (ties broken by core id),
    runs the head of its queue — stealing from the longest other queue
    when its own is empty — and resumes the fiber after an
    SVA-mediated switch to its process ({!Kernel.switch_to}).

    Preemption is timer-driven: {!run} arms every core's interval
    timer and installs a [Kernel.preempt] hook that fires at the
    syscall-trap epilogue; when the core's timer has expired the hook
    acknowledges the tick and unwinds the fiber back into the
    scheduler (re-enqueued at the back of its home queue).

    Scheduling is fully deterministic — core choice depends only on
    simulated cycle counts and ids. *)

type t

val create : Kernel.t -> t
(** One run queue per machine core. *)

val spawn : t -> ?cpu:int -> name:string -> Proc.t -> (unit -> unit) -> unit
(** Enqueue a fiber.  [cpu] pins the initial home queue (default:
    round-robin over cores in spawn order).  The body runs with the
    process's address space installed and may call {!yield}; syscalls
    made inside it are preemption points. *)

val run : ?timer_period:int -> t -> unit
(** Drive all fibers to completion.  [timer_period] is the per-core
    timer interval in cycles (default 400k).  Exceptions escaping a
    fiber propagate (after disarming timers and removing the preempt
    hook). *)

val yield : t -> unit
(** Voluntarily reschedule the calling fiber (no-op outside {!run}). *)

(** {1 Statistics} *)

val preemptions : t -> int
(** Timer-tick preemptions delivered. *)

val steals : t -> int
(** Fibers migrated to an idle core by work stealing. *)
