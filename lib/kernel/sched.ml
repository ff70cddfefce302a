(* Preemptive multi-core scheduler over effects-based fibers.

   Each runnable activity is a fiber: an OCaml function driving one
   process through the userland runtime.  Fibers live on per-CPU run
   queues; the scheduler loop repeatedly picks the core with the
   lowest simulated clock (deterministic tie-break on core id), pops
   that core's queue — stealing from the longest queue when its own is
   empty — and resumes the fiber after switching to its process
   through the SVA-mediated path ([Kernel.switch_to]).

   Preemption is timer-driven: [run] arms every core's interval timer,
   and the hook it installs as [Kernel.preempt] fires at the
   syscall-trap epilogue — the point where a real kernel's timer
   interrupt would find the thread preemptible — acknowledging the
   tick and performing [Yield], which unwinds the fiber back into the
   scheduler loop and re-enqueues it.

   Everything here is deterministic: core choice depends only on
   simulated cycle counts and ids, queues are FIFO, and the timer is
   driven by the simulated clock. *)

type _ Effect.t += Yield : unit Effect.t

type fiber = {
  fid : int;
  name : string;
  proc : Proc.t;
  body : unit -> unit;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable home : int; (* queue the fiber goes back to when preempted *)
  mutable done_ : bool;
}

type t = {
  kernel : Kernel.t;
  queues : fiber Queue.t array;
  mutable next_fid : int;
  mutable active : bool;
  mutable preemptions : int;
  mutable steals : int;
  mutable dispatches : int;
}

let default_timer_period = 400_000

let create kernel =
  let cpus = Machine.cpus kernel.Kernel.machine in
  {
    kernel;
    queues = Array.init cpus (fun _ -> Queue.create ());
    next_fid = 0;
    active = false;
    preemptions = 0;
    steals = 0;
    dispatches = 0;
  }

let preemptions t = t.preemptions
let steals t = t.steals
let pending t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues

let spawn t ?cpu ~name (proc : Proc.t) body =
  let cpus = Array.length t.queues in
  let home =
    match cpu with
    | Some c ->
        if c < 0 || c >= cpus then invalid_arg "Sched.spawn: bad cpu";
        c
    | None -> t.next_fid mod cpus
  in
  let fiber =
    { fid = t.next_fid; name; proc; body; cont = None; home; done_ = false }
  in
  t.next_fid <- t.next_fid + 1;
  Queue.push fiber t.queues.(home)

let yield t = if t.active then Effect.perform Yield

(* Pick the core that runs next: lowest simulated clock among cores
   that can make progress (own queue non-empty, or a steal available —
   some other queue holds at least two fibers, so stealing cannot
   ping-pong a lone fiber between idle cores). *)
let choose_core t =
  let m = t.kernel.Kernel.machine in
  let cpus = Array.length t.queues in
  let steal_available c =
    let ok = ref false in
    Array.iteri (fun i q -> if i <> c && Queue.length q >= 2 then ok := true) t.queues;
    !ok
  in
  let best = ref None in
  for c = 0 to cpus - 1 do
    if not (Queue.is_empty t.queues.(c)) || steal_available c then begin
      let cy = Machine.core_cycles m c in
      match !best with
      | Some (_, bcy) when bcy <= cy -> ()
      | _ -> best := Some (c, cy)
    end
  done;
  (* Fall back to the core holding work (single runnable fiber on a
     busy core while idle cores cannot steal it). *)
  match !best with
  | Some (c, _) -> c
  | None ->
      let holder = ref 0 in
      Array.iteri (fun i q -> if not (Queue.is_empty q) then holder := i) t.queues;
      !holder

let steal_into t cpu =
  let victim = ref (-1) and best_len = ref 1 in
  Array.iteri
    (fun i q ->
      if i <> cpu && Queue.length q > !best_len then begin
        victim := i;
        best_len := Queue.length q
      end)
    t.queues;
  if !victim >= 0 then begin
    let fiber = Queue.pop t.queues.(!victim) in
    fiber.home <- cpu;
    t.steals <- t.steals + 1;
    Queue.push fiber t.queues.(cpu)
  end

let dispatch t fiber =
  let k = t.kernel in
  let m = k.Kernel.machine in
  let cpu = Machine.cpu m in
  t.dispatches <- t.dispatches + 1;
  let prev_tid = Option.value ~default:(-1) (Sva.running_on k.Kernel.sva ~cpu) in
  let next_tid = fiber.proc.Proc.tid in
  if prev_tid <> next_tid then begin
    Machine.charge ~tag:Obs.Tag.Sched m 60;
    Machine.emit m (Obs.Event.Sched_switch { cpu; prev_tid; next_tid })
  end;
  Kernel.switch_to k fiber.proc;
  (* When control comes back (fiber preempted or finished), the core
     parks in its idle context: the thread's state is saved into SVA
     and it becomes resumable from any core (work stealing). *)
  match fiber.cont with
  | Some cont ->
      fiber.cont <- None;
      Effect.Deep.continue cont ();
      Sva.swap_idle k.Kernel.sva
  | None ->
      Effect.Deep.match_with fiber.body ()
        {
          retc = (fun () -> fiber.done_ <- true);
          exnc = raise;
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Yield ->
                  Some
                    (fun (cont : (a, _) Effect.Deep.continuation) ->
                      fiber.cont <- Some cont;
                      Queue.push fiber t.queues.(fiber.home))
              | _ -> None);
        };
      Sva.swap_idle k.Kernel.sva

let run ?(timer_period = default_timer_period) t =
  let k = t.kernel in
  let m = k.Kernel.machine in
  if t.active then invalid_arg "Sched.run: already running";
  t.active <- true;
  let saved_preempt = k.Kernel.preempt in
  k.Kernel.preempt <-
    (fun () ->
      if t.active && Machine.timer_pending m then begin
        Machine.ack_timer m;
        t.preemptions <- t.preemptions + 1;
        Effect.perform Yield
      end);
  (* Blocking syscalls park here: yield the fiber back to the run
     queue and tell the caller to retry once it is resumed.  Without a
     scheduler the default hook leaves EAGAIN semantics in place. *)
  let saved_block = k.Kernel.block in
  k.Kernel.block <-
    (fun () ->
      if t.active then begin
        Effect.perform Yield;
        true
      end
      else false);
  Machine.arm_timer m ~period:timer_period;
  Fun.protect
    ~finally:(fun () ->
      Machine.disarm_timer m;
      k.Kernel.preempt <- saved_preempt;
      k.Kernel.block <- saved_block;
      t.active <- false)
    (fun () ->
      while pending t > 0 do
        let cpu = choose_core t in
        Machine.switch_core m cpu;
        if Queue.is_empty t.queues.(cpu) then steal_into t cpu;
        if not (Queue.is_empty t.queues.(cpu)) then begin
          let fiber = Queue.pop t.queues.(cpu) in
          dispatch t fiber
        end
      done)
