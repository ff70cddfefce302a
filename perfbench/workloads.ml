(* The four workloads.  Each drives the libraries only through their
   public entry points; every input comes from the seeded generators
   below.  Every node runs the Virtual Ghost build with the compiled
   execution engine set explicitly, on an obs context of its own. *)

open Vg_obs
open Vg_machine
open Vg_sva
open Vg_kernel
open Vg_userland
open Vg_apps
open Vg_fleet

(* -- seeded inputs ---------------------------------------------------- *)

let rng ~seed stream = Random.State.make [| 0x7a3d; seed; stream |]
let random_bytes st n = Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))

let shuffled st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* An endless sequence of rounds, each a fresh seeded permutation of
   [items]: every whole number of rounds holds each item equally often,
   so the seed moves order and contents but not the mix. *)
let rounds st items =
  let cur = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !cur then begin
      cur := shuffled st items;
      pos := 0
    end;
    let x = !cur.(!pos) in
    incr pos;
    x

type doc = { path : string; data : bytes }

(* Four documents of each size: 1, 4, 16 and 64 KB of seeded bytes. *)
let docs st =
  let sizes = [| 1024; 4096; 16384; 65536 |] in
  Array.init 16 (fun i ->
      { path = Printf.sprintf "/doc%02d" i; data = random_bytes st sizes.(i mod 4) })

let node_config ~name ~seed =
  Node_config.(
    default |> with_mode Sva.Virtual_ghost
    |> with_engine Vg_compiler.Exec_engine.Compiled
    |> with_seed (Printf.sprintf "perfbench-%s-%d" name seed)
    |> with_obs (Obs.create ()))

let check what = function
  | Ok x -> x
  | Error e -> failwith (what ^ ": " ^ Errno.to_string e)

let port = 80

(* -- web -------------------------------------------------------------- *)

(* One long-lived thttpd process and one client; op = one GET.  The
   server is never relaunched: once it crashes, every later request
   fails. *)
let web ~seed (h : Harness.t) =
  let st = rng ~seed 1 in
  let node =
    h.boot (fun () ->
        Node.boot (node_config ~name:"web" ~seed |> Node_config.with_phys_frames 65536))
  in
  let m = Node.machine node in
  h.observe m;
  let docs = docs st in
  Array.iter (fun d -> check ("www " ^ d.path) (Node.www node ~path:d.path d.data)) docs;
  let next = rounds st docs in
  Node.launch node ~ghosting:false (fun ctx ->
      let listen_fd = check "listen" (Httpd.start ctx ~port) in
      let crashed = ref None in
      let get path =
        Httpd.Client.get m ~port ~path (fun () ->
            if !crashed = None then
              try ignore (h.app (fun () -> Httpd.serve_requests ctx ~listen_fd ~max:1))
              with Runtime.App_crash msg -> crashed := Some msg)
      in
      Array.iter
        (fun d ->
          if get d.path <> Some d.data then failwith ("web: warm-up GET " ^ d.path ^ " failed"))
        docs;
      h.loop (fun _ ->
          let d = next () in
          let expected = h.expect d.data in
          Harness.clocked [ m ] (fun () ->
              let body = get d.path in
              !crashed = None && body = Some expected));
      Option.iter (fun msg -> prerr_endline ("web: server crashed: " ^ msg)) !crashed)

(* -- postmark --------------------------------------------------------- *)

(* (base files, transactions) per session, taken in seeded rounds.  An
   odd number of shapes puts the median session inside the middle
   shape's cluster rather than on the edge between two. *)
let postmark_shapes = [| (8, 40); (16, 80); (24, 120); (32, 160); (40, 200) |]

(* Repeated Postmark sessions, one process each; op = one session.
   Each session runs in a fresh /pm: removing the directory afterwards
   proves the session left it empty, and keeps one session's directory
   size from slowing the lookups of the next. *)
let postmark ~seed (h : Harness.t) =
  let st = rng ~seed 2 in
  let node = h.boot (fun () -> Node.boot (node_config ~name:"postmark" ~seed)) in
  let m = Node.machine node and fs = (Node.kernel node).Kernel.fs in
  h.observe m;
  let next = rounds st postmark_shapes in
  h.loop (fun _ ->
      let base_files, transactions = next () in
      let config =
        { Postmark.paper_config with base_files; transactions; seed = Random.State.bits st }
      in
      Harness.clocked [ m ] (fun () ->
          let r = h.app (fun () -> Node.launch node ~ghosting:false (fun ctx -> Postmark.run ctx config)) in
          Result.is_ok r && Result.is_ok (Diskfs.rmdir fs "/pm")))

(* -- ghost_swap ------------------------------------------------------- *)

let swap_frame_limit = 192
let marker_len = 16

(* A ghosting walker on a 2-CPU node capped at 192 kernel frames, with
   swapd running.  Set-up fills a working set of three times the
   resident capacity, one page at a time in a seeded order; the walk
   then repeats that order, so every touch finds its page evicted: op =
   one verified touch (unseal it, seal a victim). *)
let ghost_swap ~seed (h : Harness.t) =
  let st = rng ~seed 3 in
  let node =
    h.boot (fun () ->
        Node.boot
          (node_config ~name:"ghost_swap" ~seed
          |> Node_config.with_cpus 2 |> Node_config.with_phys_frames 8192
          |> Node_config.with_frame_limit swap_frame_limit))
  in
  let k = Node.kernel node and m = Node.machine node in
  h.observe m;
  let sched = Sched.create k in
  Ghost_swap.spawn_swapd k sched;
  ignore
    (Runtime.spawn_fiber k sched ~cpu:0 ~ghosting:true ~name:"walker" (fun ctx ->
         let proc = ctx.Runtime.proc in
         let base = Int64.add Vg_util.Layout.ghost_start 0x100000L in
         let page i = Int64.add base (Int64.of_int (i * 4096)) in
         (* Resident capacity, less slack for page tables and the
            daemon's watermark gap. *)
         let pages = 3 * (Ghost_swap.available k - 48) in
         let markers = Array.init pages (fun _ -> random_bytes st marker_len) in
         let order = shuffled st (Array.init pages Fun.id) in
         Array.iter
           (fun j ->
             check "walker allocgm" (Syscalls.allocgm k proc ~va:(page j) ~pages:1);
             Runtime.poke ctx (page j) markers.(j))
           order;
         let s0 = Ghost_swap.stats k in
         let ops = ref 0 in
         h.loop (fun i ->
             let j = order.(i mod pages) in
             let expected = h.expect markers.(j) in
             let refusals = (Ghost_swap.stats k).Ghost_swap.refusals in
             incr ops;
             Harness.clocked [ m ] (fun () ->
                 let got = h.app (fun () -> Runtime.peek ctx (page j) marker_len) in
                 Bytes.equal got expected
                 && (Ghost_swap.stats k).Ghost_swap.refusals = refusals));
         let s1 = Ghost_swap.stats k in
         let per_op a b = float_of_int (b - a) /. float_of_int (max 1 !ops) in
         h.report
           [
             ("ghost_swap.swap_outs_per_op", per_op s0.swap_outs s1.swap_outs);
             ("ghost_swap.swap_ins_per_op", per_op s0.swap_ins s1.swap_ins);
             ("ghost_swap.reclaims", float_of_int (s1.reclaims - s0.reclaims));
             ("ghost_swap.daemon_wakeups", float_of_int (s1.daemon_wakeups - s0.daemon_wakeups));
           ];
         Ghost_swap.stop_swapd k));
  Sched.run sched

(* -- fleet ------------------------------------------------------------ *)

let requests_per_wave = 8

let body_of raw =
  let s = Bytes.to_string raw in
  let rec find i =
    if i + 4 > String.length s then None
    else if String.sub s i 4 = "\r\n\r\n" then Some (i + 4)
    else find (i + 1)
  in
  match find 0 with
  | Some start when String.length s >= 12 && String.sub s 9 3 = "200" ->
      Some (Bytes.sub raw start (Bytes.length raw - start))
  | _ -> None

(* One closed-loop wave: the balancer assigns every request, each
   client connects on its node's harness wire, then each assigned node
   runs its event-loop server ([Httpd.Event_loop.serve], batch 8).  The
   wave takes as long as its slowest node.  [serve] resets the node's
   clocks just after calling [background], so the cycles charged before
   the reset are read there. *)
let wave f nodes (h : Harness.t) d ~expected ~requests =
  let n = Array.length nodes in
  let machines = Array.map Node.machine nodes in
  let lb = Fleet.lb f in
  let start = Array.map Harness.clock_sum machines in
  let security0 = Array.init n (fun i -> List.length (Fleet.security_events f i)) in
  let eps = Array.make n [] and dropped = ref 0 in
  for _ = 1 to requests do
    match Lb.assign lb with
    | None -> incr dropped
    | Some i ->
        let m = machines.(i) in
        Machine.charge m Cost.tcp_handshake;
        let ep = Netstack.Remote.connect (Machine.remote_nic m) ~port in
        Netstack.Remote.send ep (Bytes.of_string (Printf.sprintf "GET %s HTTP/1.0\r\n" d.path));
        eps.(i) <- ep :: eps.(i)
  done;
  let elapsed = Array.make n 0 and pre_reset = Array.make n 0 and good = ref 0 in
  Array.iteri
    (fun i eps ->
      if eps <> [] then begin
        let st =
          h.app (fun () ->
              Httpd.Event_loop.serve ~batch:8 (Node.kernel nodes.(i)) ~port
                ~background:(fun _ -> pre_reset.(i) <- Harness.clock_sum machines.(i)))
        in
        elapsed.(i) <- st.Httpd.Event_loop.elapsed_cycles;
        List.iter
          (fun ep ->
            let raw = Netstack.Remote.recv_all_available ep in
            Netstack.Remote.close ep;
            if body_of raw = Some expected then incr good;
            Lb.complete lb i)
          eps
      end)
    eps;
  let charged =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun i m ->
           let fin = Harness.clock_sum m in
           if eps.(i) = [] then fin - start.(i) else pre_reset.(i) - start.(i) + fin)
         machines)
  in
  let clean =
    Array.for_all Fun.id
      (Array.mapi (fun i before -> List.length (Fleet.security_events f i) = before) security0)
  in
  let op =
    {
      Harness.ok = !good = requests && !dropped = 0 && clean;
      latency = Array.fold_left max 0 elapsed;
      charged;
    }
  in
  (op, elapsed)

(* A 2-node round-robin fleet of event-loop servers; op = one wave of 8
   requests for one document from [web]'s mix. *)
let fleet ~seed (h : Harness.t) =
  let st = rng ~seed 4 in
  let f =
    h.boot (fun () -> Fleet.create ~policy:Lb.Round_robin ~nodes:2 (node_config ~name:"fleet" ~seed))
  in
  let nodes = Array.init (Fleet.size f) (Fleet.node f) in
  Array.iter (fun nd -> h.observe (Node.machine nd)) nodes;
  Fleet.listen_all f ~port;
  let docs = docs st in
  Array.iter (fun d -> Fleet.setup_www f ~path:d.path d.data) docs;
  Array.iter
    (fun d ->
      let op, _ = wave f nodes h d ~expected:d.data ~requests:(Array.length nodes) in
      if not op.Harness.ok then failwith ("fleet: warm-up wave for " ^ d.path ^ " failed"))
    docs;
  let next = rounds st docs in
  let lb = Fleet.lb f in
  let assigned () = Array.init (Array.length nodes) (Lb.assigned lb) in
  let a0 = assigned () in
  let spread = ref 0 and waves = ref 0 in
  h.loop (fun _ ->
      let d = next () in
      let op, elapsed = wave f nodes h d ~expected:(h.expect d.data) ~requests:requests_per_wave in
      spread := !spread + Array.fold_left max 0 elapsed - Array.fold_left min max_int elapsed;
      incr waves;
      op);
  let delta = Array.map2 ( - ) (assigned ()) a0 in
  h.report
    [
      ( "fleet.assigned_spread",
        float_of_int (Array.fold_left max 0 delta - Array.fold_left min max_int delta) );
      ( "fleet.node_elapsed_spread_cycles",
        float_of_int !spread /. float_of_int (max 1 !waves) );
    ]

let all = [ ("web", web); ("postmark", postmark); ("ghost_swap", ghost_swap); ("fleet", fleet) ]
