(** The ghost-swap memory-pressure engine (paper section 3.3).

    "Unlike programmed I/O, swapping of ghost memory is the
    responsibility of Virtual Ghost": the OS picks victims, stores the
    bytes and schedules the work, but only the VM may read the
    plaintext — it hands the kernel an encrypted, MAC'd,
    replay-protected blob ({!Sva.swap_out_ghost}) and verifies
    integrity {e and} freshness on the way back in
    ({!Sva.swap_in_ghost}).  This module is the kernel half, grown into
    a full subsystem:

    - per-core frame pools over {!Frame_alloc} with low/high watermark
      hysteresis ({!balance}), so ghost working sets larger than
      physical memory run under sustained load;
    - a second-chance clock over resident ghost pages ({!swap_out_one})
      with a single-pass fallback scan — victim selection no longer
      recounts every process's pages per candidate;
    - demand fault handling ({!fault_in}) that is correct under SMP:
      concurrent faults on one swapped-out page perform exactly one
      restore (the in-flight table), and eviction skips pages mid
      swap-in;
    - a [swapd] daemon fiber ({!spawn_swapd}) reclaiming in the
      background under the {!Sched} scheduler.

    The baseline build swaps too — but with no sealing, which is what
    the swap attacks in {!Vg_attacks.Other_attacks} exploit.  Engine
    state is populated only by swap activity: runs that never swap are
    cycle-identical to a kernel without the engine. *)

(** {1 Frame supply} *)

val available : Kernel.t -> int
(** Frames obtainable right now: the global free list plus the
    per-core pools. *)

val take_frames : Kernel.t -> int -> int list option
(** All-or-nothing grab of [n] frames, pools first.  With empty pools
    this is exactly the pre-engine allocation (one global allocator
    grab under [frame_lock]). *)

val ensure_frames : Kernel.t -> wanted:int -> unit
(** Memory-pressure hook: evict ghost pages until [wanted] frames are
    available (or nothing is left to evict). *)

val ensure_free : Kernel.t -> wanted:int -> unit
(** Refill the {e global} free list for non-ghost allocations (demand
    paging, copy-on-write), which cannot see the per-core pools: spill
    pooled frames back to the allocator, then evict ghost pages until
    it can satisfy [wanted] or nothing is left to evict. *)

val balance : Kernel.t -> int
(** Watermark hysteresis: if availability is below the low watermark,
    evict up to the high one; otherwise do nothing. *)

val set_watermarks : Kernel.t -> low:int -> high:int -> unit
(** Override the boot-time watermarks (tests, tuning).
    @raise Invalid_argument unless [0 < low < high]. *)

(** {1 Eviction} *)

val note_resident : Kernel.t -> Proc.t -> va:int64 -> pages:int -> unit
(** Register freshly mapped ghost pages with the eviction clock and
    mark them referenced.  Charge-free; {!Syscalls} calls this from
    [allocgm]. *)

val swap_out_one : Kernel.t -> (unit, string) result
(** Evict one ghost page: second-chance clock first, fallback scan
    (process with most resident ghost pages) when the clock is dry.
    [Error] when nothing is resident. *)

val swap_out_page : Kernel.t -> Proc.t -> va:int64 -> (unit, string) result
(** Evict one {e specific} page — the hostile-policy hook: the OS may
    victimise whatever it likes (thrashing one process is a
    denial-of-service the threat model permits), it just can never
    read or forge the contents. *)

(** {1 Swap-in} *)

val swap_in_page : Kernel.t -> Proc.t -> int64 -> unit Errno.result
(** Core swap-in, no trap accounting (daemon / prefetch path).
    Serialised per page: a concurrent caller waits on the in-flight
    entry and then finds the page resident — exactly one restore.
    [EFAULT] when no blob exists; [EACCES] when the VM refuses the
    blob (corruption, substitution or replay — the application is not
    handed corrupt secrets); [ENOMEM] when no frame can be found. *)

val fault_in : Kernel.t -> Proc.t -> int64 -> unit Errno.result
(** Fault-time path: hardware-fault and trap accounting around
    {!swap_in_page}.  The userland runtime calls this for ghost
    addresses. *)

(** {1 Teardown} *)

val release_range : Kernel.t -> Proc.t -> va:int64 -> pages:int -> unit
(** Unlink stored blobs for a freed ghost range ([freegm]).  The VM
    has already invalidated their freshness entries; this only
    reclaims disk.  Free when swapping never ran. *)

val release_blobs : Kernel.t -> Proc.t -> unit
(** {!release_range} over every ghost region of a dying process
    (exit / kill). *)

(** {1 The swapd daemon} *)

val spawn_swapd : Kernel.t -> Sched.t -> unit
(** Spawn the background reclaimer as a scheduler fiber: each wakeup
    runs {!balance} and yields, until {!stop_swapd}. *)

val stop_swapd : Kernel.t -> unit
(** Ask the daemon to exit at its next wakeup. *)

(** {1 Introspection} *)

val resident_ghost_pages : Proc.t -> int
(** Ghost pages of the process currently mapped (single pass). *)

val is_swapped_out : Kernel.t -> Proc.t -> int64 -> bool
(** Whether a ghost address currently lives in the swap store. *)

type stats = {
  swap_outs : int;
  swap_ins : int;
  refusals : int;  (** swap-ins the VM rejected *)
  reclaims : int;  (** reclaim episodes (not pages) *)
  daemon_wakeups : int;
  pooled : int;  (** frames currently in per-core pools *)
  low : int;
  high : int;
}

val stats : Kernel.t -> stats
