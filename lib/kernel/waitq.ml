(* Kernel waitqueues.

   The simulator's fibers cannot park inside the kernel the way real
   threads do, so a waitqueue is a *wakeup edge detector*: every event
   that could make a sleeper runnable (bytes written to a pipe, a frame
   demuxed into a socket inbox, a child turning zombie) bumps the
   queue's sequence number.  A blocked syscall records the sequence
   numbers of the queues it subscribed to, yields back to the
   scheduler, and re-scans its descriptors only once some subscribed
   sequence has advanced — the scan work is paid on wakeup, not on
   every spin of the run queue, which is exactly what a waitqueue buys
   a real kernel. *)

type t = { name : string; mutable seq : int; mutable wakeups : int }

let create ~name = { name; seq = 0; wakeups = 0 }

let wake t =
  t.seq <- t.seq + 1;
  t.wakeups <- t.wakeups + 1

(* Subscription: a snapshot of several queues, and the test for "did
   anything I subscribed to happen since". *)
type sub = (t * int) list

let subscribe qs : sub = List.map (fun q -> (q, q.seq)) qs
let signalled (s : sub) = List.exists (fun (q, at) -> q.seq <> at) s
