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
  mutable owner : int; (* cpu inside the critical section; -1 when free *)
  mutable last_cpu : int; (* cache-line home; -1 until first acquire *)
  mutable acquisitions : int;
  mutable transfers : int;
}

exception Error of string

let create machine ~name =
  { machine; name; owner = -1; last_cpu = -1; acquisitions = 0; transfers = 0 }

let holder t = if t.owner < 0 then None else Some t.owner
let held_by_current t = t.owner = Machine.cpu t.machine
let transfers t = t.transfers

let acquire t =
  let cpu = Machine.cpu t.machine in
  if t.owner >= 0 then
    raise
      (Error
         (Printf.sprintf "spinlock %s: cpu%d acquire while held by cpu%d" t.name cpu
            t.owner));
  if Machine.cpus t.machine > 1 && t.last_cpu >= 0 && t.last_cpu <> cpu then begin
    Machine.charge ~tag:Obs.Tag.Lock t.machine Cost.lock_transfer;
    t.transfers <- t.transfers + 1;
    Machine.emit t.machine
      (Obs.Event.Lock_contend { name = t.name; cpu; last_cpu = t.last_cpu })
  end;
  t.owner <- cpu;
  t.last_cpu <- cpu;
  t.acquisitions <- t.acquisitions + 1

let release t =
  let cpu = Machine.cpu t.machine in
  if t.owner = cpu then t.owner <- -1
  else if t.owner >= 0 then
    raise
      (Error
         (Printf.sprintf "spinlock %s: cpu%d released a lock held by cpu%d" t.name cpu
            t.owner))
  else raise (Error (Printf.sprintf "spinlock %s: cpu%d released an unheld lock" t.name cpu))

let with_lock t f =
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      release t;
      Printexc.raise_with_backtrace e bt
