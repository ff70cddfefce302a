(* The ghost-swap memory-pressure engine: the kernel half of paper
   section 3.3's ghost swapping, grown from the old one-shot [Swapd]
   into a real subsystem.

   Division of labour (the MProtect split): the *untrusted* kernel —
   this module — owns victim policy, frame pooling, blob storage and
   scheduling; the *trusted* VM ([Sva.swap_out_ghost] /
   [Sva.swap_in_ghost]) is the only code that sees ghost plaintext, and
   it seals every page with integrity *and* freshness before the kernel
   may touch the bytes.  Nothing this module does can leak or corrupt a
   ghost page — at worst it can refuse service, and every refusal the
   VM issues carries one [Security{swap}] event.

   Engine state lives in [Kernel.t.swap] (a {!Swap_state.t}); it is
   populated exclusively by swap activity, so a run in which swapping
   never triggers executes the exact same charged operations as a
   kernel without the engine (the cycle goldens depend on this). *)

let swap_dir = "/swap"

let page_va vpage = Int64.shift_left vpage 12
let vpage_of va = Int64.shift_right_logical va 12

let blob_path pid vpage = Printf.sprintf "%s/p%d-%Lx" swap_dir pid vpage

let ensure_swap_dir k =
  match Diskfs.lookup k.Kernel.fs swap_dir with
  | Ok _ -> ()
  | Error _ -> ignore (Diskfs.mkdir k.Kernel.fs swap_dir)

(* Resident ghost pages of one process, in a single pass over its
   regions (no intermediate page lists). *)
let resident_ghost_pages (proc : Proc.t) =
  List.fold_left
    (fun acc (base, pages) ->
      let base_vp = vpage_of base in
      let count = ref 0 in
      for i = 0 to pages - 1 do
        let vp = Int64.add base_vp (Int64.of_int i) in
        if Pagetable.lookup proc.Proc.pt ~vpage:vp <> None then incr count
      done;
      acc + !count)
    0 proc.Proc.ghost_regions

let is_swapped_out k (proc : Proc.t) va =
  match Diskfs.lookup k.Kernel.fs (blob_path proc.Proc.pid (vpage_of va)) with
  | Ok _ -> true
  | Error _ -> false

(* {2 Frame availability} *)

(* Frames the engine can hand out immediately: the global free list
   plus whatever sits in the per-core pools (pool frames stay "in use"
   from the allocator's point of view). *)
let available k =
  Frame_alloc.free_count k.Kernel.frames + k.Kernel.swap.Swap_state.pooled

let set_watermarks k ~low ~high =
  if low < 1 || high <= low then invalid_arg "Ghost_swap.set_watermarks";
  let s = k.Kernel.swap in
  s.Swap_state.low <- low;
  s.Swap_state.high <- high

(* Stash a frame freed by swap-out in the current core's pool (up to
   [pool_target] per core), else return it to the global allocator. *)
let put_frame k frame =
  let s = k.Kernel.swap in
  let pooled_here =
    Spinlock.with_lock s.Swap_state.lock (fun () ->
        let cpu = Machine.cpu k.Kernel.machine in
        if List.length s.Swap_state.pools.(cpu) < s.Swap_state.pool_target
        then begin
          s.Swap_state.pools.(cpu) <- frame :: s.Swap_state.pools.(cpu);
          s.Swap_state.pooled <- s.Swap_state.pooled + 1;
          true
        end
        else false)
  in
  if not pooled_here then
    Spinlock.with_lock k.Kernel.frame_lock (fun () ->
        Frame_alloc.free k.Kernel.frames frame)

(* All-or-nothing grab of [n] frames: current core's pool first, then
   the other pools, then the global allocator.  When the pools are
   empty this is exactly the old [Kernel.grant_ghost_frames] — same
   locks, same charges — which keeps non-swapping runs cycle-identical. *)
let take_frames k n =
  let s = k.Kernel.swap in
  let from_pool =
    if s.Swap_state.pooled = 0 then []
    else
      Spinlock.with_lock s.Swap_state.lock (fun () ->
          let cpus = Array.length s.Swap_state.pools in
          let here = Machine.cpu k.Kernel.machine in
          let got = ref [] and want = ref n in
          for d = 0 to cpus - 1 do
            let cpu = (here + d) mod cpus in
            let rec grab pool =
              if !want = 0 then pool
              else
                match pool with
                | [] -> []
                | f :: rest ->
                    got := f :: !got;
                    decr want;
                    grab rest
            in
            s.Swap_state.pools.(cpu) <- grab s.Swap_state.pools.(cpu)
          done;
          s.Swap_state.pooled <- s.Swap_state.pooled - List.length !got;
          !got)
  in
  let missing = n - List.length from_pool in
  if missing = 0 then Some from_pool
  else
    match
      Spinlock.with_lock k.Kernel.frame_lock (fun () ->
          Frame_alloc.alloc_many k.Kernel.frames missing)
    with
    | Some fresh -> Some (from_pool @ fresh)
    | None ->
        List.iter (put_frame k) from_pool;
        None

(* {2 The eviction clock} *)

(* Register freshly mapped ghost pages with the clock (allocation and
   swap-in call this).  Charge-free and lock-free: fibers only
   interleave at yield points, so the queue/hashtable updates are
   atomic in simulated time, and non-swapping runs must not pay for
   bookkeeping. *)
let note_resident k (proc : Proc.t) ~va ~pages =
  let s = k.Kernel.swap in
  let base = vpage_of va in
  for i = 0 to pages - 1 do
    let page = (proc.Proc.pid, Int64.add base (Int64.of_int i)) in
    if not (Hashtbl.mem s.Swap_state.on_clock page) then begin
      Hashtbl.replace s.Swap_state.on_clock page ();
      Queue.push page s.Swap_state.clock
    end;
    Hashtbl.replace s.Swap_state.referenced page ()
  done

(* Second-chance sweep: pop the hand; stale entries (page gone, process
   dead — nothing unregisters eagerly) are dropped, referenced pages
   get their bit cleared and go around again, in-flight swap-ins are
   skipped.  [guard] bounds the sweep at two full revolutions. *)
let rec clock_pick s k guard =
  if guard = 0 then None
  else
    match Queue.take_opt s.Swap_state.clock with
    | None -> None
    | Some ((pid, vpage) as page) -> (
        match Kernel.find_proc k pid with
        | Some proc
          when (not (Proc.is_zombie proc))
               && Pagetable.lookup proc.Proc.pt ~vpage <> None ->
            if Hashtbl.mem s.Swap_state.inflight page then begin
              Queue.push page s.Swap_state.clock;
              clock_pick s k (guard - 1)
            end
            else if Hashtbl.mem s.Swap_state.referenced page then begin
              Hashtbl.remove s.Swap_state.referenced page;
              Queue.push page s.Swap_state.clock;
              clock_pick s k (guard - 1)
            end
            else begin
              Hashtbl.remove s.Swap_state.on_clock page;
              Some (proc, vpage)
            end
        | _ ->
            Hashtbl.remove s.Swap_state.on_clock page;
            Hashtbl.remove s.Swap_state.referenced page;
            clock_pick s k (guard - 1))

(* Fallback for pages that never went through the syscall layer (and
   so were never registered): one pass over each process's regions,
   counting residents and remembering the first, victimising the
   process with the most resident ghost pages — the old policy, minus
   its per-candidate recount. *)
let scan_victim k =
  let s = k.Kernel.swap in
  let best = ref None in
  Hashtbl.iter
    (fun _ (proc : Proc.t) ->
      if not (Proc.is_zombie proc) then begin
        let count = ref 0 and first = ref None in
        List.iter
          (fun (base, pages) ->
            let base_vp = vpage_of base in
            for i = 0 to pages - 1 do
              let vp = Int64.add base_vp (Int64.of_int i) in
              if
                Pagetable.lookup proc.Proc.pt ~vpage:vp <> None
                && not (Hashtbl.mem s.Swap_state.inflight (proc.Proc.pid, vp))
              then begin
                incr count;
                if !first = None then first := Some vp
              end
            done)
          proc.Proc.ghost_regions;
        match !first with
        | None -> ()
        | Some vp -> (
            match !best with
            | Some (_, _, n) when n >= !count -> ()
            | _ -> best := Some (proc, vp, !count))
      end)
    k.Kernel.procs;
  match !best with None -> None | Some (proc, vp, _) -> Some (proc, vp)

(* {2 Swap-out} *)

let write_blob k path blob =
  ensure_swap_dir k;
  let ino_result =
    match Diskfs.lookup k.Kernel.fs path with
    | Ok ino ->
        ignore (Diskfs.truncate k.Kernel.fs ~ino ~len:0);
        Ok ino
    | Error Errno.ENOENT -> Diskfs.create k.Kernel.fs path
    | Error _ as e -> e
  in
  match ino_result with
  | Error e -> Error (Errno.to_string e)
  | Ok ino -> (
      match Diskfs.write k.Kernel.fs ~ino ~off:0 blob with
      | Ok _ -> Ok ()
      | Error e -> Error (Errno.to_string e))

let swap_out_page k (proc : Proc.t) ~va =
  let s = k.Kernel.swap in
  let vpage = vpage_of va in
  if Hashtbl.mem s.Swap_state.inflight (proc.Proc.pid, vpage) then
    Error "ghost-swap: page has a swap-in in flight"
  else begin
    Kmem.fn_entry k.Kernel.kmem;
    Kmem.work k.Kernel.kmem 80;
    match
      Sva.swap_out_ghost k.Kernel.sva ~pid:proc.Proc.pid ~pt:proc.Proc.pt
        ~va:(page_va vpage)
    with
    | Error _ as e -> e
    | Ok (frame, blob) -> (
        match write_blob k (blob_path proc.Proc.pid vpage) blob with
        | Error _ as e -> e
        | Ok () ->
            put_frame k frame;
            s.Swap_state.swap_outs <- s.Swap_state.swap_outs + 1;
            Ok ())
  end

let swap_out_one k =
  let s = k.Kernel.swap in
  let victim =
    Spinlock.with_lock s.Swap_state.lock (fun () ->
        clock_pick s k ((2 * Queue.length s.Swap_state.clock) + 1))
  in
  let victim = match victim with Some _ as v -> v | None -> scan_victim k in
  match victim with
  | None -> Error "ghost-swap: no resident ghost pages to evict"
  | Some (proc, vpage) -> swap_out_page k proc ~va:(page_va vpage)

(* {2 Reclaim and watermarks} *)

(* Evict until [available] reaches [target]; returns the number of
   pages swapped out. *)
let reclaim k ~target =
  let s = k.Kernel.swap in
  let evicted = ref 0 in
  let stuck = ref false in
  while (not !stuck) && available k < target do
    match swap_out_one k with
    | Ok () -> incr evicted
    | Error _ -> stuck := true
  done;
  if !evicted > 0 then s.Swap_state.reclaims <- s.Swap_state.reclaims + 1;
  !evicted

(* Hysteresis: only engage below [low], then refill all the way to
   [high] — the gap keeps the engine from ping-ponging when
   availability hovers at a single boundary. *)
let balance k =
  let s = k.Kernel.swap in
  if available k < s.Swap_state.low then reclaim k ~target:s.Swap_state.high
  else 0

let ensure_frames k ~wanted =
  let guard = ref 4096 in
  while available k < wanted && !guard > 0 do
    decr guard;
    match swap_out_one k with Ok () -> () | Error _ -> guard := 0
  done

(* Non-ghost allocations (demand paging, copy-on-write) draw straight
   from the global allocator and cannot see the per-core pools.  Spill
   every pooled frame back to the allocator; only called on the
   starvation path, so non-swapping runs never pay for it. *)
let spill_pools k =
  let s = k.Kernel.swap in
  if s.Swap_state.pooled > 0 then begin
    let frames =
      Spinlock.with_lock s.Swap_state.lock (fun () ->
          let all = List.concat (Array.to_list s.Swap_state.pools) in
          Array.iteri
            (fun i _ -> s.Swap_state.pools.(i) <- [])
            s.Swap_state.pools;
          s.Swap_state.pooled <- 0;
          all)
    in
    if frames <> [] then
      Spinlock.with_lock k.Kernel.frame_lock (fun () ->
          List.iter (Frame_alloc.free k.Kernel.frames) frames)
  end

let ensure_free k ~wanted =
  let guard = ref 4096 in
  while Frame_alloc.free_count k.Kernel.frames < wanted && !guard > 0 do
    decr guard;
    if k.Kernel.swap.Swap_state.pooled > 0 then spill_pools k
    else match swap_out_one k with Ok () -> () | Error _ -> guard := 0
  done

(* {2 Swap-in} *)

(* Core swap-in: no trap accounting, so the scheduler's daemon or a
   prefetching kernel path can call it directly.  The in-flight table
   closes the SMP race: the first core to fault publishes the (pid,
   vpage) pair, later cores yield until it clears and then find the
   page resident — exactly one restore happens. *)
let swap_in_page k (proc : Proc.t) va =
  let s = k.Kernel.swap in
  let vpage = vpage_of va in
  let page = (proc.Proc.pid, vpage) in
  let rec await_inflight () =
    if Hashtbl.mem s.Swap_state.inflight page then
      if k.Kernel.block () then await_inflight ()
  in
  await_inflight ();
  if Pagetable.lookup proc.Proc.pt ~vpage <> None then Ok ()
    (* lost the race: the other core already restored the page *)
  else begin
    Hashtbl.replace s.Swap_state.inflight page ();
    let finish result =
      Hashtbl.remove s.Swap_state.inflight page;
      result
    in
    let path = blob_path proc.Proc.pid vpage in
    match Diskfs.lookup k.Kernel.fs path with
    | Error _ -> finish (Error Errno.EFAULT)
    | Ok ino -> (
        let blob =
          match Diskfs.stat k.Kernel.fs ~ino with
          | Ok st -> (
              match
                Diskfs.read k.Kernel.fs ~ino ~off:0 ~len:st.Diskfs.size
              with
              | Ok b -> Some b
              | Error _ -> None)
          | Error _ -> None
        in
        (* The faulting thread sleeps on the swap device here; under
           the fiber scheduler other cores run — this is the window in
           which a concurrent fault on the same page can arrive. *)
        ignore (k.Kernel.block ());
        match blob with
        | None -> finish (Error Errno.EFAULT)
        | Some blob -> (
            if available k = 0 then ensure_frames k ~wanted:1;
            match take_frames k 1 with
            | None -> finish (Error Errno.ENOMEM)
            | Some frames -> (
                let frame = List.hd frames in
                match
                  Sva.swap_in_ghost k.Kernel.sva ~pid:proc.Proc.pid
                    ~pt:proc.Proc.pt ~va:(page_va vpage) ~frame ~blob
                with
                | Ok () ->
                    ignore (Diskfs.unlink k.Kernel.fs path);
                    s.Swap_state.swap_ins <- s.Swap_state.swap_ins + 1;
                    note_resident k proc ~va:(page_va vpage) ~pages:1;
                    finish (Ok ())
                | Error msg ->
                    put_frame k frame;
                    s.Swap_state.refusals <- s.Swap_state.refusals + 1;
                    Console.write
                      (Machine.console k.Kernel.machine)
                      ("ghost-swap: " ^ msg);
                    finish (Error Errno.EACCES))))
  end

(* Fault-time path: hardware fault, VM trap, handler work, then the
   core swap-in. *)
let fault_in k (proc : Proc.t) va =
  match Diskfs.lookup k.Kernel.fs (blob_path proc.Proc.pid (vpage_of va)) with
  | Error _ -> Error Errno.EFAULT
  | Ok _ ->
      Machine.charge ~tag:Obs.Tag.Page_fault k.Kernel.machine
        Cost.page_fault_hw;
      Sva.enter_trap k.Kernel.sva ~tid:proc.Proc.tid;
      Kmem.fn_entry k.Kernel.kmem;
      Kmem.work k.Kernel.kmem 100;
      let result = swap_in_page k proc va in
      Sva.return_from_trap k.Kernel.sva ~tid:proc.Proc.tid;
      result

(* {2 Process teardown} *)

(* Unlink any blobs a dying process left in the swap store (the VM has
   already invalidated their freshness entries, so they could never be
   restored — this only reclaims disk).  Gated on swap activity so
   runs that never swap charge nothing extra at exit. *)
let release_range k (proc : Proc.t) ~va ~pages =
  if k.Kernel.swap.Swap_state.swap_outs > 0 then begin
    let base_vp = vpage_of va in
    for i = 0 to pages - 1 do
      let vp = Int64.add base_vp (Int64.of_int i) in
      let path = blob_path proc.Proc.pid vp in
      match Diskfs.lookup k.Kernel.fs path with
      | Ok _ -> ignore (Diskfs.unlink k.Kernel.fs path)
      | Error _ -> ()
    done
  end

let release_blobs k (proc : Proc.t) =
  List.iter
    (fun (base, pages) -> release_range k proc ~va:base ~pages)
    proc.Proc.ghost_regions

(* {2 The swapd daemon} *)

let daemon_cost = 50

let spawn_swapd k sched =
  let s = k.Kernel.swap in
  s.Swap_state.daemon_stop <- false;
  (* The daemon gets its own kernel process (a thread to dispatch on
     any core); sharing init's thread would collide with whichever CPU
     init is current on. *)
  match Kernel.create_process k ~parent:(Kernel.init_process k) with
  | Error e -> failwith ("ghost-swap: spawn_swapd: " ^ Errno.to_string e)
  | Ok proc ->
      Sched.spawn sched ~name:"swapd" proc (fun () ->
          while not s.Swap_state.daemon_stop do
            s.Swap_state.daemon_wakeups <- s.Swap_state.daemon_wakeups + 1;
            Machine.charge ~tag:Obs.Tag.Swap k.Kernel.machine daemon_cost;
            ignore (balance k);
            Sched.yield sched
          done)

let stop_swapd k = k.Kernel.swap.Swap_state.daemon_stop <- true

(* {2 Statistics} *)

type stats = {
  swap_outs : int;
  swap_ins : int;
  refusals : int;
  reclaims : int;
  daemon_wakeups : int;
  pooled : int;
  low : int;
  high : int;
}

let stats k =
  let s = k.Kernel.swap in
  {
    swap_outs = s.Swap_state.swap_outs;
    swap_ins = s.Swap_state.swap_ins;
    refusals = s.Swap_state.refusals;
    reclaims = s.Swap_state.reclaims;
    daemon_wakeups = s.Swap_state.daemon_wakeups;
    pooled = s.Swap_state.pooled;
    low = s.Swap_state.low;
    high = s.Swap_state.high;
  }
