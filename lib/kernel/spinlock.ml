(* Kernel spinlocks over the simulated cores.

   The simulator interleaves cores at syscall granularity, so a lock is
   never observed mid-critical-section by another core; what spinlocks
   cost on real SMP hardware is the coherence traffic — the lock's
   cache line migrating between cores.  That is what we charge: a core
   acquiring a lock last held by a different core pays
   [Cost.lock_transfer] and raises a [Lock_contend] event.  On a 1-CPU
   machine spinlocks charge nothing at all, exactly as uniprocessor
   kernel builds compile them away.

   Ownership is strictly enforced: releasing a lock you do not hold is
   a kernel bug, not a modelling artefact, and raises [Error]. *)

type t = {
  machine : Machine.t;
  name : string;
  mutable owner : int option; (* cpu currently inside the critical section *)
  mutable last_cpu : int; (* cache-line home; -1 until first acquire *)
  mutable acquisitions : int;
  mutable transfers : int;
}

exception Error of string

let create machine ~name =
  { machine; name; owner = None; last_cpu = -1; acquisitions = 0; transfers = 0 }

let holder t = t.owner
let held_by_current t = t.owner = Some (Machine.cpu t.machine)
let transfers t = t.transfers

let acquire t =
  let cpu = Machine.cpu t.machine in
  (match t.owner with
  | Some o ->
      raise
        (Error
           (Printf.sprintf "spinlock %s: cpu%d acquire while held by cpu%d" t.name
              cpu o))
  | None -> ());
  if Machine.cpus t.machine > 1 && t.last_cpu >= 0 && t.last_cpu <> cpu then begin
    Machine.charge ~tag:Obs.Tag.Lock t.machine Cost.lock_transfer;
    t.transfers <- t.transfers + 1;
    Machine.emit t.machine
      (Obs.Event.Lock_contend { name = t.name; cpu; last_cpu = t.last_cpu })
  end;
  t.owner <- Some cpu;
  t.last_cpu <- cpu;
  t.acquisitions <- t.acquisitions + 1

let release t =
  let cpu = Machine.cpu t.machine in
  match t.owner with
  | Some o when o = cpu -> t.owner <- None
  | Some o ->
      raise
        (Error
           (Printf.sprintf "spinlock %s: cpu%d released a lock held by cpu%d" t.name
              cpu o))
  | None ->
      raise (Error (Printf.sprintf "spinlock %s: cpu%d released an unheld lock" t.name cpu))

let with_lock t f =
  acquire t;
  Fun.protect ~finally:(fun () -> release t) f
