(* The closed-loop harness every workload runs under: one op in flight at
   a time, one host thread.  A workload boots its nodes, stages its
   inputs, then hands [loop] the function that performs op [i]; the
   harness times set-up, times each op on the host clock, and (in a
   traced session) arms the probe on every observed machine for exactly
   the measured ops. *)

open Vg_obs
open Vg_machine

let now = Unix.gettimeofday

type op = {
  ok : bool;
  latency : int;
      (** simulated cycles the op took on the clock that bounds it: the
          most-advanced core, or the slowest node of a fleet wave *)
  charged : int;  (** cycles charged on every core of every node *)
}

type t = {
  boot : 'a. (unit -> 'a) -> 'a;  (** span around [Node.boot]/[Fleet.create] *)
  app : 'a. (unit -> 'a) -> 'a;  (** span around the application's own entry call *)
  observe : Machine.t -> unit;  (** a machine whose clocks and obs the run covers *)
  loop : (int -> op) -> unit;  (** run the measured ops; returns at once in a set-up-only session *)
  report : (string * float) list -> unit;  (** workload counters over the measured ops *)
  expect : bytes -> bytes;  (** the bytes an op must return, given the staged ones *)
}

type plan =
  | Setup_only
  | Measure of {
      min_ops : int;  (** always run, whatever the clock says *)
      max_ops : int;
      seconds : float;
      probe : Probe.t option;
    }

type session = {
  setup_s : float;  (** boot plus staging, up to the first op *)
  boot_s : float;
  ops : op array;
  host_s : float array;  (** host seconds per op *)
  app_s : float;  (** host seconds of the measured ops inside [app] spans *)
  loop_s : float;
  heap_words : int;  (** [Gc] top heap after the first [min_ops] ops *)
  gc_before : Gc.stat;
  gc_after : Gc.stat;
  counters : (string * float) list;
  errors : string list;  (** first few exceptions raised by ops *)
}

(* -- simulated clocks ------------------------------------------------- *)

let clock_sum m =
  let s = ref 0 in
  for c = 0 to Machine.cpus m - 1 do
    s := !s + Machine.core_cycles m c
  done;
  !s

(* [clocked ms f] runs one op on machines whose clocks nothing resets
   meanwhile: latency is the largest per-core advance, charged the sum. *)
let clocked ms f =
  let snap = List.map (fun m -> Array.init (Machine.cpus m) (Machine.core_cycles m)) ms in
  let ok = f () in
  let latency = ref 0 and charged = ref 0 in
  List.iter2
    (fun m before ->
      Array.iteri
        (fun c b ->
          let d = Machine.core_cycles m c - b in
          latency := max !latency d;
          charged := !charged + d)
        before)
    ms snap;
  { ok; latency = !latency; charged = !charged }

(* -- one session ------------------------------------------------------ *)

let run ~plan ~expect workload =
  (* Every session starts from a collected heap, so set-up time does not
     depend on how much garbage earlier sessions left. *)
  Gc.full_major ();
  let t0 = now () in
  let boot_s = ref 0.0 and app_acc = ref 0.0 in
  let setup_s = ref nan in
  let machines = ref [] in
  let ops = ref [] and host = ref [] in
  let loop_s = ref 0.0 and app_s = ref 0.0 and heap_words = ref 0 in
  let gc_before = ref (Gc.quick_stat ()) and gc_after = ref (Gc.quick_stat ()) in
  let counters = ref [] and errors = ref [] in
  let measure ~min_ops ~max_ops ~seconds ~probe op =
    let sink = Option.map Probe.sink probe in
    let attach f = Option.iter (fun s -> List.iter (fun m -> f (Machine.obs m) s) !machines) sink in
    attach Obs.attach;
    gc_before := Gc.quick_stat ();
    let start = now () and app0 = !app_acc in
    let i = ref 0 in
    while !i < min_ops || (!i < max_ops && now () -. start < seconds) do
      Option.iter Probe.op_start probe;
      let a = now () in
      let r =
        try op !i
        with e ->
          if List.length !errors < 5 then errors := Printexc.to_string e :: !errors;
          { ok = false; latency = 0; charged = 0 }
      in
      let b = now () in
      Option.iter Probe.op_end probe;
      ops := r :: !ops;
      host := (b -. a) :: !host;
      incr i;
      if !i = min_ops then heap_words := (Gc.quick_stat ()).Gc.top_heap_words
    done;
    loop_s := now () -. start;
    app_s := !app_acc -. app0;
    gc_after := Gc.quick_stat ();
    attach Obs.detach
  in
  let h =
    {
      boot =
        (fun f ->
          let a = now () in
          let r = f () in
          boot_s := !boot_s +. (now () -. a);
          r);
      app =
        (fun f ->
          let a = now () in
          Fun.protect f ~finally:(fun () -> app_acc := !app_acc +. (now () -. a)));
      observe = (fun m -> machines := m :: !machines);
      loop =
        (fun op ->
          setup_s := now () -. t0;
          match plan with
          | Setup_only -> ()
          | Measure { min_ops; max_ops; seconds; probe } ->
              measure ~min_ops ~max_ops ~seconds ~probe op);
      report = (fun kvs -> counters := kvs);
      expect;
    }
  in
  workload h;
  if Float.is_nan !setup_s then failwith "workload never reached its measured loop";
  let arr l = Array.of_list (List.rev l) in
  {
    setup_s = !setup_s;
    boot_s = !boot_s;
    ops = arr !ops;
    host_s = arr !host;
    app_s = !app_s;
    loop_s = !loop_s;
    heap_words = !heap_words;
    gc_before = !gc_before;
    gc_after = !gc_after;
    counters = !counters;
    errors = List.rev !errors;
  }
