(* The traced run's sink, attached to each node's own [Machine.obs].

   It sums simulated cycles and charge counts per [Obs.Tag], counts the
   events the per-layer metrics need, and keeps any [Security] event.
   Host time is attributed approximately: the interval from one charge
   to the next probe callback (charge or event) is credited to that
   charge's tag; the interval after an event, or before the first
   callback of an op, is "untagged".  Time outside ops is not
   credited. *)

open Vg_obs

type t = {
  cycles : int array;
  charges : int array;
  host : float array;
  mutable untagged : float;
  mutable last : float;
  mutable last_tag : int;  (** tag of the open interval; -1 = none *)
  mutable traps : int;
  mutable syscalls : int;
  mutable switches : int;
  mutable security : string list;
}

let create () =
  {
    cycles = Array.make Obs.Tag.count 0;
    charges = Array.make Obs.Tag.count 0;
    host = Array.make Obs.Tag.count 0.0;
    untagged = 0.0;
    last = 0.0;
    last_tag = -1;
    traps = 0;
    syscalls = 0;
    switches = 0;
    security = [];
  }

let credit t =
  let now = Unix.gettimeofday () in
  let dt = now -. t.last in
  if t.last_tag >= 0 then t.host.(t.last_tag) <- t.host.(t.last_tag) +. dt
  else t.untagged <- t.untagged +. dt;
  t.last <- now

let sink t =
  {
    Obs.name = "perfbench";
    on_charge =
      (fun ~cycles:_ tag n ->
        credit t;
        let i = Obs.Tag.index tag in
        t.cycles.(i) <- t.cycles.(i) + n;
        t.charges.(i) <- t.charges.(i) + 1;
        t.last_tag <- i);
    on_event =
      (fun ~cycles:_ ev ->
        credit t;
        t.last_tag <- -1;
        (match ev with
        | Obs.Event.Trap_enter _ -> t.traps <- t.traps + 1
        | Obs.Event.Syscall _ -> t.syscalls <- t.syscalls + 1
        | Obs.Event.Sched_switch _ -> t.switches <- t.switches + 1
        | _ -> ());
        if Obs.Event.is_security ev then
          t.security <- Obs.Event.describe ev :: t.security);
  }

let op_start t =
  t.last <- Unix.gettimeofday ();
  t.last_tag <- -1

let op_end t =
  credit t;
  t.last_tag <- -1

let cycles t tag = t.cycles.(Obs.Tag.index tag)
let host t tag = t.host.(Obs.Tag.index tag)
let total_cycles t = Array.fold_left ( + ) 0 t.cycles
let total_host t = Array.fold_left ( +. ) t.untagged t.host
