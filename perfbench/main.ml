(* perfbench: the repository benchmark.

     main.exe --workload web|postmark|ghost_swap|fleet --seed N
              --seconds S --trace 0|1
     main.exe --self-test

   An untraced run (--trace 0) measures closed-loop ops for S seconds —
   never fewer than the workload's pinned op count, never more than its
   cap — and reports the median of [setups] set-up times, taken before
   and after the measured ops.  The simulated metrics cover exactly the
   pinned ops, so they are identical for a given seed.  A traced run
   (--trace 1) runs the pinned ops twice from fresh set-ups, untraced
   then with the probe armed, and reports the per-layer metrics.  The
   last line of stdout is one JSON object.  See README.md. *)

open Vg_obs

type sizing = {
  pinned : int;  (** ops every run makes; the sim metrics cover these *)
  cap : int;  (** most ops a run makes *)
  setups : int;  (** set-ups per untraced run; setup_s is their median *)
}

let sizing = function
  (* [web]'s cap keeps its unfreed per-request allocation well short of
     the server's ENOMEM crash. *)
  | "web" -> { pinned = 1024; cap = 6144; setups = 15 }
  | "postmark" -> { pinned = 1025; cap = 100_000; setups = 25 }
  | "ghost_swap" -> { pinned = 1024; cap = 100_000; setups = 3 }
  | "fleet" -> { pinned = 1024; cap = 100_000; setups = 15 }
  | w -> failwith ("unknown workload " ^ w)

(* -- statistics ------------------------------------------------------- *)

let median_f a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let pct p a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1))

let sum_i = Array.fold_left ( + ) 0
let sum_f = Array.fold_left ( +. ) 0.0
let fdiv a b = float_of_int a /. float_of_int (max 1 b)

(* -- output ----------------------------------------------------------- *)

type metric = string * float * string

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_result ~correct ~attempted ~failed (metrics : metric list) =
  List.iter (fun (n, v, u) -> Printf.printf "  %-36s %16.6f %s\n" n v u) metrics;
  let fields =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " fields)

(* A digest of every pinned op's simulated cycles, plus the per-tag
   totals when a traced run has them: equal digests mean the simulation
   did the same thing. *)
let digest (ops : Harness.op array) tags =
  let b = Buffer.create 4096 in
  Array.iter (fun (o : Harness.op) -> Printf.bprintf b "%d %d\n" o.latency o.charged) ops;
  Option.iter
    (fun p ->
      List.iter
        (fun tag -> Printf.bprintf b "%s %d\n" (Obs.Tag.to_string tag) (Probe.cycles p tag))
        Obs.Tag.all)
    tags;
  Digest.to_hex (Digest.string (Buffer.contents b))

let failures (s : Harness.session) =
  Array.fold_left (fun n (o : Harness.op) -> if o.ok then n else n + 1) 0 s.ops

let report_errors (s : Harness.session) =
  List.iter (fun e -> Printf.printf "  op raised: %s\n" e) s.errors

(* -- the two kinds of run --------------------------------------------- *)

let sim_ops sz (s : Harness.session) = Array.sub s.ops 0 (min sz.pinned (Array.length s.ops))

let untraced name wl ~seed ~seconds =
  let sz = sizing name in
  (* The host's speed drifts over seconds, so the extra set-ups are
     split between the start and the end of the run. *)
  let setups n = List.init n (fun _ -> (Harness.run ~plan:Setup_only ~expect:Fun.id (wl ~seed)).Harness.setup_s) in
  let before = setups (sz.setups / 2) in
  let s =
    Harness.run ~expect:Fun.id
      ~plan:(Measure { min_ops = sz.pinned; max_ops = sz.cap; seconds; probe = None })
      (wl ~seed)
  in
  let setup_times = Array.of_list ((s.setup_s :: before) @ setups ((sz.setups - 1) / 2)) in
  report_errors s;
  let pinned = sim_ops sz s in
  let n = Array.length s.ops and failed = failures s in
  let latency = Array.map (fun (o : Harness.op) -> o.latency) pinned in
  Printf.printf "%s seed=%d: %d ops (%d pinned) in %.3f s, %d failed (failed_op_frac %g)\n" name
    seed n (Array.length pinned) s.loop_s failed (fdiv failed n);
  Printf.printf "  sim ops digest %s\n" (digest pinned None);
  let metrics =
    [
      ("setup_s", median_f setup_times, "s");
      ("ops_per_host_s", float_of_int n /. s.loop_s, "1/s");
      ("host_op_p50_us", 1e6 *. median_f s.host_s, "us");
      ( "sim_cycles_per_op",
        fdiv (sum_i (Array.map (fun (o : Harness.op) -> o.charged) pinned)) (Array.length pinned),
        "cycles" );
      ("sim_op_p50_cycles", float_of_int (pct 50.0 latency), "cycles");
      ("sim_op_p99_cycles", float_of_int (pct 99.0 latency), "cycles");
      ("ok_op_frac", 1.0 -. fdiv failed n, "frac");
      ( "host_peak_heap_mb",
        float_of_int (s.heap_words * (Sys.word_size / 8)) /. 1048576.0,
        "MB" );
    ]
  in
  print_result ~correct:(failed = 0) ~attempted:n ~failed metrics

let share_tags =
  Obs.Tag.
    [
      ("crypto", Crypto);
      ("mask", Mask);
      ("copy", Copy);
      ("net", Net);
      ("kernel", Kernel_work);
      ("trap_save", Trap_save);
      ("mmu_check", Mmu_check);
      ("swap", Swap);
      ("sched", Sched);
      ("ring", Ring);
      ("tlb", Tlb);
    ]

(* Reported by the workloads that have them; zero elsewhere. *)
let workload_counters =
  [
    ("ghost_swap.swap_outs_per_op", "count");
    ("ghost_swap.swap_ins_per_op", "count");
    ("ghost_swap.reclaims", "count");
    ("ghost_swap.daemon_wakeups", "count");
    ("fleet.assigned_spread", "count");
    ("fleet.node_elapsed_spread_cycles", "cycles");
  ]

let traced name wl ~seed =
  let sz = sizing name in
  let plan probe = Harness.Measure { min_ops = sz.pinned; max_ops = sz.pinned; seconds = 0.0; probe } in
  let a = Harness.run ~plan:(plan None) ~expect:Fun.id (wl ~seed) in
  let p = Probe.create () in
  let b = Harness.run ~plan:(plan (Some p)) ~expect:Fun.id (wl ~seed) in
  report_errors a;
  report_errors b;
  let ops = Array.length b.ops in
  let per_op v = v /. float_of_int ops in
  let cyc tags = per_op (float_of_int (List.fold_left (fun acc t -> acc + Probe.cycles p t) 0 tags)) in
  let total = sum_i (Array.map (fun (o : Harness.op) -> o.charged) b.ops) in
  let same_sim = a.ops = b.ops in
  let sums_match = Probe.total_cycles p = total in
  let host_total = Probe.total_host p in
  let rate (s : Harness.session) = float_of_int (Array.length s.ops) /. s.loop_s in
  let gc f = f a.gc_after -. f a.gc_before in
  let failed = failures a + failures b in
  Printf.printf "%s seed=%d traced: %d ops; probe cycles %d, op cycles %d (%s)\n" name seed ops
    (Probe.total_cycles p) total
    (if sums_match then "per-tag cycles sum to the total" else "MISMATCH");
  if not same_sim then print_endline "  traced and untraced simulated cycles DIFFER";
  List.iter (fun e -> Printf.printf "  security event: %s\n" e) p.security;
  Printf.printf "  sim ops digest %s\n  fingerprint %s\n" (digest a.ops None) (digest b.ops (Some p));
  let counter k = Option.value (List.assoc_opt k b.counters) ~default:0.0 in
  let app_us = 1e6 *. per_op a.app_s in
  let metrics =
    [
      ("setup.boot_ms", 1e3 *. a.boot_s, "ms");
      ("setup.stage_ms", 1e3 *. (a.setup_s -. a.boot_s), "ms");
      ("sva.trap_cycles_per_op", cyc Obs.Tag.[ Trap; Trap_save; Trap_return ], "cycles");
      ("sva.traps_per_op", per_op (float_of_int p.traps), "count");
      ("sva.mmu_check_cycles_per_op", cyc [ Mmu_check ], "cycles");
      ("sva.crypto_cycles_per_op", cyc [ Crypto ], "cycles");
      ("kernel.syscalls_per_op", per_op (float_of_int p.syscalls), "count");
      ("kernel.swap_cycles_per_op", cyc [ Swap ], "cycles");
      ("kernel.ring_cycles_per_op", cyc [ Ring ], "cycles");
      ("kernel.sched_cycles_per_op", cyc [ Sched ], "cycles");
      ("kernel.context_switches_per_op", per_op (float_of_int p.switches), "count");
      ("kernel.work_cycles_per_op", cyc [ Kernel_work ], "cycles");
      ("kernel.disk_cycles_per_op", cyc [ Disk ], "cycles");
      ("compiler.mask_cycles_per_op", cyc [ Mask ], "cycles");
      ("compiler.cfi_cycles_per_op", cyc [ Cfi ], "cycles");
      ("machine.copy_cycles_per_op", cyc [ Copy ], "cycles");
      ("machine.net_cycles_per_op", cyc [ Net ], "cycles");
      ("machine.tlb_cycles_per_op", cyc [ Tlb ], "cycles");
      ("machine.ipi_cycles_per_op", cyc [ Ipi ], "cycles");
    ]
    @ List.map (fun (k, unit) -> (k, counter k, unit)) workload_counters
    @ List.map
        (fun (n, tag) -> ("host_share." ^ n, Probe.host p tag /. host_total, "frac"))
        share_tags
    @ [
        ("host_share.untagged", p.untagged /. host_total, "frac");
        ("apps.server_host_us_per_op", app_us, "us");
        ("apps.client_host_us_per_op", (1e6 *. per_op (sum_f a.host_s)) -. app_us, "us");
        ("gc.minor_words_per_op", per_op (gc (fun g -> g.Gc.minor_words)), "words");
        ( "gc.major_collections_per_kop",
          1e3 *. per_op (gc (fun g -> float_of_int g.Gc.major_collections)),
          "count" );
        ( "gc.heap_growth_kb_per_op",
          per_op (gc (fun g -> float_of_int g.Gc.top_heap_words)) *. float_of_int (Sys.word_size / 8)
          /. 1024.0,
          "KB" );
        ("host.op_p99_us", 1e6 *. pct 99.0 a.host_s, "us");
        ("trace.overhead_frac", 1.0 -. (rate b /. rate a), "frac");
      ]
  in
  let correct = failed = 0 && same_sim && sums_match && p.security = [] in
  print_result ~correct ~attempted:(Array.length a.ops + ops) ~failed metrics

(* A deliberately wrong expected body must show up as failed ops. *)
let self_test () =
  let flip b =
    let b = Bytes.copy b in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
    b
  in
  let run expect =
    let s =
      Harness.run ~expect
        ~plan:(Measure { min_ops = 32; max_ops = 32; seconds = 0.0; probe = None })
        (Workloads.web ~seed:1)
    in
    failures s
  in
  let honest = run Fun.id and corrupted = run flip in
  Printf.printf "self-test: honest run %d/32 failed, wrong expected body %d/32 failed\n" honest
    corrupted;
  if honest = 0 && corrupted = 32 then print_endline "self-test passed"
  else begin
    print_endline "self-test FAILED";
    exit 1
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " web|postmark|ghost_swap|fleet");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds of an untraced run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--self-test", Arg.Set self, " check that wrong outputs are counted as failures");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !self then self_test ()
  else
    match List.assoc_opt !workload Workloads.all with
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
    | Some wl ->
        if !trace = 1 then traced !workload wl ~seed:!seed
        else untraced !workload wl ~seed:!seed ~seconds:!seconds
