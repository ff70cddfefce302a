type mode = Native_build | Virtual_ghost

type frame_use = Kernel_managed | Ghost_frame of int | Sva_internal | Code_frame

type mmu_error =
  | Protected_frame of frame_use
  | Protected_range of string
  | Not_ghost_owner

let pp_frame_use fmt = function
  | Kernel_managed -> Format.pp_print_string fmt "kernel-managed"
  | Ghost_frame pid -> Format.fprintf fmt "ghost(pid %d)" pid
  | Sva_internal -> Format.pp_print_string fmt "sva-internal"
  | Code_frame -> Format.pp_print_string fmt "code"

let pp_mmu_error fmt = function
  | Protected_frame u -> Format.fprintf fmt "protected frame (%a)" pp_frame_use u
  | Protected_range s -> Format.fprintf fmt "protected virtual range (%s)" s
  | Not_ghost_owner -> Format.pp_print_string fmt "page is not ghost memory of this process"

type thread = {
  tid : int;
  pid : int;
  mutable ic : Icontext.t;
  ic_stack : Icontext.t Stack.t;
  mirror_va : int64;
  mirror_slot : int;
}

(* Per-CPU SVA-OS state, as the paper specifies: each core has its own
   Interrupt Stack Table save area inside SVA-internal memory and its
   own notion of which thread is live.  [running] is what lets
   [swap_integer] refuse to resume a thread that is already executing
   on another core — a hostile kernel cannot clone a live register
   state onto two CPUs. *)
type percpu = {
  cpu : int;
  ist_va : int64;
  mutable running : int option; (* tid *)
  mutable switches : int;
}

type t = {
  machine : Machine.t;
  mode : mode;
  percpu : percpu array;
  uses : (int, frame_use) Hashtbl.t;
  mutable address_spaces : (Pagetable.t * int) list;
  threads : (int, thread) Hashtbl.t;
  mutable next_tid : int;
  mutable free_slots : int list;
  mutable next_slot : int;
  mutable top_frame : int; (* SVA's private top-of-memory frame allocator *)
  drbg : Vg_crypto.Drbg.t;
  vg_key : Vg_crypto.Rsa.private_ Lazy.t;
  trans_cache : Vg_compiler.Trans_cache.t;
  permitted : (int, (int64, unit) Hashtbl.t) Hashtbl.t;
  app_keys : (int, bytes) Hashtbl.t;
  exec_cache : (string, bytes) Hashtbl.t; (* image digest -> app key *)
  swap_key : bytes;
  (* Per-page freshness table, in VG-protected memory: (pid, va) of
     every swapped-out ghost page -> the version sealed into the only
     blob the VM will accept back.  A stale-but-valid blob is replay,
     not restore. *)
  swap_versions : (int * int64, int) Hashtbl.t;
  mutable swap_epoch : int;
  mutable traps : int;
  mutable mmu_checks : int;
}

let mode t = t.mode
let machine t = t.machine
let translation_cache t = t.trans_cache
let frame_use t frame = Option.value ~default:Kernel_managed (Hashtbl.find_opt t.uses frame)
let set_code_frame t frame = Hashtbl.replace t.uses frame Code_frame
let iommu_config_port = 0xfee0L

(* Number of frames reserved for SVA-internal memory (1 MiB): interrupt
   contexts, IST stacks, keys. *)
let sva_frames = 256

let kernel_perm : Pagetable.perm = { writable = true; user = false; executable = false }

(* ------------------------------------------------------------------ *)
(* Boot                                                                *)

let seal_nonce = Bytes.make 8 '\x5a'

let boot ?(vg_key_bits = 256) ~mode machine =
  let tpm = Machine.tpm machine in
  let storage_key = Tpm.storage_key tpm in
  let drbg =
    Vg_crypto.Drbg.create ~seed:(Bytes.cat storage_key (Machine.hw_random machine 32))
  in
  let uses = Hashtbl.create 1024 in
  (* Reserve the top of physical memory for SVA-internal data and map
     it at the SVA virtual range in the shared kernel page table. *)
  let phys_frames = Phys_mem.frames (Machine.mem machine) in
  let top_frame = ref (phys_frames - 1) in
  let kpt = Machine.kernel_pt machine in
  for i = 0 to sva_frames - 1 do
    let frame = !top_frame in
    decr top_frame;
    Hashtbl.replace uses frame Sva_internal;
    Pagetable.map kpt
      ~vpage:(Int64.add (Int64.shift_right_logical Layout.sva_start 12) (Int64.of_int i))
      { Pagetable.frame; perm = kernel_perm }
  done;
  (* The Virtual Ghost key pair: unsealed from TPM NVRAM when present,
     generated and sealed on first boot.  Lazy so tests that never
     exercise the key chain skip the RSA work. *)
  let vg_key =
    lazy
      (match Tpm.nvram_load tpm "vg-sealed-key" with
      | Some sealed -> (
          match Vg_crypto.Ctr.open_ ~key:storage_key ~nonce:seal_nonce sealed with
          | Some blob -> (Marshal.from_bytes blob 0 : Vg_crypto.Rsa.private_)
          | None -> failwith "Sva.boot: sealed VG key corrupt")
      | None ->
          let key = Vg_crypto.Rsa.generate drbg ~bits:vg_key_bits in
          let blob = Marshal.to_bytes key [] in
          Tpm.nvram_store tpm "vg-sealed-key"
            (Vg_crypto.Ctr.seal ~key:storage_key ~nonce:seal_nonce blob);
          key)
  in
  let swap_key =
    Bytes.sub (Vg_crypto.Hmac.mac ~key:storage_key (Bytes.of_string "vg-swap")) 0 16
  in
  let trans_cache =
    Vg_compiler.Trans_cache.create
      ~key:(Vg_crypto.Hmac.mac ~key:storage_key (Bytes.of_string "vg-transcache"))
  in
  (* Per-CPU Interrupt Stack Table save areas live at the top of the
     SVA-internal range (the per-thread mirrors grow from the bottom). *)
  let percpu =
    Array.init (Machine.cpus machine) (fun cpu ->
        {
          cpu;
          ist_va =
            Int64.add Layout.sva_start (Int64.of_int (0x000f_0000 + (cpu * 0x1000)));
          running = None;
          switches = 0;
        })
  in
  let t =
    {
      machine;
      mode;
      percpu;
      uses;
      address_spaces = [];
      threads = Hashtbl.create 64;
      next_tid = 1;
      free_slots = [];
      next_slot = 0;
      top_frame = !top_frame;
      drbg;
      vg_key;
      trans_cache;
      permitted = Hashtbl.create 16;
      app_keys = Hashtbl.create 16;
      exec_cache = Hashtbl.create 16;
      swap_key;
      swap_versions = Hashtbl.create 64;
      swap_epoch = 0;
      traps = 0;
      mmu_checks = 0;
    }
  in
  (* DMA protection: the IOMMU refuses transfers touching any frame the
     registry marks as protected.  Only in Virtual Ghost mode — the
     baseline leaves the IOMMU unconfigured, as commodity systems do. *)
  (match mode with
  | Virtual_ghost ->
      Iommu.set_protected (Machine.iommu machine) (fun f ->
          match frame_use t f with
          | Kernel_managed -> false
          | Ghost_frame _ | Sva_internal | Code_frame -> true)
  | Native_build -> ());
  t

let vg_private_key_for_installer t = Lazy.force t.vg_key
let vg_public_key t = (Lazy.force t.vg_key).Vg_crypto.Rsa.pub

(* ------------------------------------------------------------------ *)
(* Checked MMU operations                                              *)

let mmu_check_cost = 60

(* Report an MMU operation's verdict.  Denials are the defence engaging
   — they must never pass silently, so every checked-MMU result flows
   through here. *)
let emit_mmu t ~op ~va (res : (unit, mmu_error) result) =
  (* On a multi-CPU machine a denied MMU update is, in the common case,
     a remap racing another core's live use of the mapping — call it
     out explicitly so the attack suite (and an operator's event log)
     sees the defence engage, not just a refused page-table write. *)
  (match res with
  | Error e when Machine.cpus t.machine > 1 ->
      Machine.emit t.machine
        (Obs.Event.Security
           {
             subsystem = "sva.mmu";
             detail =
               Format.asprintf "cpu%d: racing MMU %s of %s denied: %a"
                 (Machine.cpu t.machine)
                 (Obs.Event.mmu_op_to_string op)
                 (U64.to_hex va) pp_mmu_error e;
           })
  | Ok () | Error _ -> ());
  if Machine.tracing t.machine then
    Machine.emit t.machine
      (Obs.Event.Mmu
         {
           op;
           va;
           verdict =
             (match res with
             | Ok () -> Obs.Event.Allowed
             | Error e -> Obs.Event.Denied (Format.asprintf "%a" pp_mmu_error e));
         });
  res

let map_checks t pt ~va ~frame ~perm : (unit, mmu_error) result =
  match t.mode with
  | Native_build -> Ok ()
  | Virtual_ghost -> (
      t.mmu_checks <- t.mmu_checks + 1;
      Machine.charge ~tag:Obs.Tag.Mmu_check t.machine mmu_check_cost;
      match frame_use t frame with
      | (Ghost_frame _ | Sva_internal) as u -> Error (Protected_frame u)
      | Code_frame when perm.Pagetable.writable -> Error (Protected_frame Code_frame)
      | Code_frame | Kernel_managed ->
          if Layout.in_ghost va then Error (Protected_range "ghost partition")
          else if Layout.in_sva va then Error (Protected_range "SVA-internal memory")
          else if Layout.in_kernel_code va && frame_use t frame <> Code_frame then
            Error (Protected_range "kernel code")
          else begin
            (* Refuse replacing a native-code translation mapping. *)
            match Pagetable.lookup pt ~vpage:(Int64.shift_right_logical va 12) with
            | Some old when frame_use t old.Pagetable.frame = Code_frame ->
                Error (Protected_range "remap of native code")
            | Some _ | None -> Ok ()
          end)

let map_page_op t pt ~op ~va ~frame ~perm =
  emit_mmu t ~op ~va
    (match map_checks t pt ~va ~frame ~perm with
    | Error _ as e -> e
    | Ok () ->
        let vpage = Int64.shift_right_logical va 12 in
        let replaces = Pagetable.lookup pt ~vpage <> None in
        Pagetable.map pt ~vpage { Pagetable.frame; perm };
        (* The VM performs the cross-core invalidation itself: a kernel
           that changes an existing translation cannot leave the stale
           one live on another core.  A brand-new mapping needs none —
           no TLB can hold an entry for a never-mapped address.  The
           hostile native build has no such obligation at all —
           skipping the shootdown is exactly the race the attack suite
           exploits. *)
        if replaces && t.mode = Virtual_ghost then
          Machine.tlb_shootdown t.machine;
        Ok ())

let map_page t pt ~va ~frame ~perm =
  map_page_op t pt ~op:Obs.Event.Map ~va ~frame ~perm

(* Unmap minus the cross-core invalidation, which the callers below
   issue either per page (single unmap) or once per batch (address
   space teardown, as real kernels batch exit/munmap flushes). *)
let unmap_page_no_shootdown t pt ~va =
  let vpage = Int64.shift_right_logical va 12 in
  emit_mmu t ~op:Obs.Event.Unmap ~va
    (match t.mode with
    | Native_build ->
        Pagetable.unmap pt ~vpage;
        Ok ()
    | Virtual_ghost ->
        t.mmu_checks <- t.mmu_checks + 1;
        Machine.charge ~tag:Obs.Tag.Mmu_check t.machine mmu_check_cost;
        if Layout.in_ghost va then Error (Protected_range "ghost partition")
        else if Layout.in_sva va then Error (Protected_range "SVA-internal memory")
        else if Layout.in_kernel_code va then Error (Protected_range "kernel code")
        else begin
          Pagetable.unmap pt ~vpage;
          Ok ()
        end)

let unmap_page t pt ~va =
  match unmap_page_no_shootdown t pt ~va with
  | Ok () when t.mode = Virtual_ghost ->
      Machine.tlb_shootdown t.machine;
      Ok ()
  | r -> r

let unmap_pages t pt ~vas =
  let any =
    List.fold_left
      (fun any va ->
        match unmap_page_no_shootdown t pt ~va with
        | Ok () -> true
        | Error _ -> any)
      false vas
  in
  if any && t.mode = Virtual_ghost then Machine.tlb_shootdown t.machine

let protect_page t pt ~va ~perm =
  let vpage = Int64.shift_right_logical va 12 in
  match Pagetable.lookup pt ~vpage with
  | None -> emit_mmu t ~op:Obs.Event.Protect ~va (Error (Protected_range "no mapping present"))
  | Some pte -> map_page_op t pt ~op:Obs.Event.Protect ~va ~frame:pte.Pagetable.frame ~perm

let map_kernel_page t ~va ~frame ~perm =
  map_page t (Machine.kernel_pt t.machine) ~va ~frame ~perm

let declare_address_space t ~pid =
  let pt = Pagetable.create () in
  t.address_spaces <- (pt, pid) :: t.address_spaces;
  pt

let release_address_space t pt =
  t.address_spaces <- List.filter (fun (p, _) -> p != pt) t.address_spaces

(* Is the frame mapped in any address space the VM knows about? *)
let frame_mapped_somewhere t frame =
  Pagetable.vpages_of_frame (Machine.kernel_pt t.machine) frame <> []
  || List.exists (fun (pt, _) -> Pagetable.vpages_of_frame pt frame <> []) t.address_spaces

(* ------------------------------------------------------------------ *)
(* Threads and interrupt contexts                                      *)

let alloc_slot t =
  match t.free_slots with
  | s :: rest ->
      t.free_slots <- rest;
      s
  | [] ->
      let s = t.next_slot in
      t.next_slot <- s + 1;
      s

(* Mirror addresses: where the serialised Interrupt Context lives.
   Native build: in ordinary kernel memory (the "kernel stack"), which
   hostile kernel code can read and write.  Virtual Ghost: inside the
   SVA-internal range, unreachable through instrumented kernel code. *)
let native_mirror_base = Int64.add Layout.kernel_data_start 0x0020_0000L
let vg_mirror_base = Int64.add Layout.sva_start 0x0000_4000L

let mirror_va_of_slot t slot =
  match t.mode with
  | Native_build -> Int64.add native_mirror_base (Int64.of_int (slot * 4096))
  | Virtual_ghost -> Int64.add vg_mirror_base (Int64.of_int (slot * 4096))

let ensure_mirror_mapped t slot =
  match t.mode with
  | Virtual_ghost -> () (* the whole SVA range is mapped at boot *)
  | Native_build ->
      let va = mirror_va_of_slot t slot in
      let kpt = Machine.kernel_pt t.machine in
      let vpage = Int64.shift_right_logical va 12 in
      if Pagetable.lookup kpt ~vpage = None then begin
        let frame = t.top_frame in
        t.top_frame <- t.top_frame - 1;
        Pagetable.map kpt ~vpage { Pagetable.frame; perm = kernel_perm }
      end

(* SVA's own accesses to its mirrors run at kernel privilege no matter
   what the CPU was doing (the VM is part of the trap path). *)
let with_kernel_privilege t f =
  let saved = Machine.privilege t.machine in
  Machine.set_privilege t.machine Machine.Kernel;
  Fun.protect ~finally:(fun () -> Machine.set_privilege t.machine saved) f

let write_mirror t thread =
  with_kernel_privilege t (fun () ->
      Machine.write_bytes_virt t.machine thread.mirror_va (Icontext.to_bytes thread.ic))

let read_mirror t thread =
  with_kernel_privilege t (fun () ->
      Icontext.of_bytes
        (Machine.read_bytes_virt t.machine thread.mirror_va ~len:Icontext.byte_size))

let find_thread t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some thread -> thread
  | None -> raise Not_found

let new_thread t ~pid ~entry ~stack =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let slot = alloc_slot t in
  ensure_mirror_mapped t slot;
  let thread =
    {
      tid;
      pid;
      ic = Icontext.create ~pc:entry ~sp:stack ~privilege:Machine.User;
      ic_stack = Stack.create ();
      mirror_va = mirror_va_of_slot t slot;
      mirror_slot = slot;
    }
  in
  Hashtbl.replace t.threads tid thread;
  write_mirror t thread;
  tid

let clone_thread t ~tid ~new_pid =
  let parent = find_thread t tid in
  let ntid = t.next_tid in
  t.next_tid <- ntid + 1;
  let slot = alloc_slot t in
  ensure_mirror_mapped t slot;
  let thread =
    {
      tid = ntid;
      pid = new_pid;
      ic = Icontext.clone parent.ic;
      ic_stack = Stack.create ();
      mirror_va = mirror_va_of_slot t slot;
      mirror_slot = slot;
    }
  in
  Hashtbl.replace t.threads ntid thread;
  write_mirror t thread;
  ntid

let free_thread t ~tid =
  match Hashtbl.find_opt t.threads tid with
  | None -> ()
  | Some thread ->
      Hashtbl.remove t.threads tid;
      t.free_slots <- thread.mirror_slot :: t.free_slots

let refresh_from_mirror t thread =
  match t.mode with
  | Native_build -> thread.ic <- read_mirror t thread
  | Virtual_ghost -> ()

let thread_icontext t ~tid =
  let thread = find_thread t tid in
  refresh_from_mirror t thread;
  thread.ic

let set_syscall_result t ~tid v =
  let thread = find_thread t tid in
  thread.ic.Icontext.gprs.(0) <- v;
  (* Keep the mirror coherent (offset 24 is gpr 0). *)
  with_kernel_privilege t (fun () ->
      Machine.write_virt t.machine (Int64.add thread.mirror_va 24L) ~len:8 v)

let native_ic_address t ~tid =
  let thread = find_thread t tid in
  match t.mode with Native_build -> Some thread.mirror_va | Virtual_ghost -> None

(* ------------------------------------------------------------------ *)
(* Trap entry / exit                                                   *)

let enter_trap t ~tid =
  t.traps <- t.traps + 1;
  Machine.charge ~tag:Obs.Tag.Trap t.machine Cost.trap_entry;
  let thread = find_thread t tid in
  if Machine.tracing t.machine then
    Machine.emit t.machine (Obs.Event.Trap_enter { tid; pid = thread.pid });
  write_mirror t thread;
  (match t.mode with
  | Virtual_ghost ->
      (* Saving into SVA memory via the IST plus zeroing registers. *)
      Machine.charge ~tag:Obs.Tag.Trap_save t.machine Cost.vg_trap_extra
  | Native_build -> ());
  Machine.set_privilege t.machine Machine.Kernel

let return_from_trap t ~tid =
  Machine.charge ~tag:Obs.Tag.Trap_return t.machine Cost.syscall_return;
  let thread = find_thread t tid in
  refresh_from_mirror t thread;
  if Machine.tracing t.machine then
    Machine.emit t.machine (Obs.Event.Trap_exit { tid; pid = thread.pid });
  Machine.set_privilege t.machine thread.ic.Icontext.privilege

(* ------------------------------------------------------------------ *)
(* SVA-mediated context switching (sva.swap.integer)                   *)

(* The only way the kernel can switch threads.  The outgoing thread's
   integer state is already inside SVA memory (its mirror / this CPU's
   IST in a Virtual Ghost build); the CPU's registers are zeroed on the
   way in and the incoming thread's state is loaded by the VM — the
   kernel names threads by opaque tid and never sees saved register
   state.  The VM refuses to resume a thread that is live on another
   CPU: duplicating a register state across cores would let a hostile
   scheduler fork a victim's execution. *)
let swap_integer t ~tid =
  let cpu = Machine.cpu t.machine in
  let pc = t.percpu.(cpu) in
  match Hashtbl.find_opt t.threads tid with
  | None -> Error (Printf.sprintf "sva.swap.integer: no thread %d" tid)
  | Some _ ->
      let live_elsewhere =
        Array.exists (fun o -> o.cpu <> cpu && o.running = Some tid) t.percpu
      in
      if live_elsewhere then begin
        let msg =
          Printf.sprintf "sva.swap.integer: thread %d is already running on another CPU"
            tid
        in
        Machine.emit t.machine
          (Obs.Event.Security { subsystem = "sva.swap"; detail = msg });
        Error msg
      end
      else begin
        (* Cross-CPU run-state check; free on a uniprocessor build,
           where there is no other core to race. *)
        if Machine.cpus t.machine > 1 then
          Machine.charge ~tag:Obs.Tag.Context_switch t.machine Cost.sva_swap_smp;
        if pc.running <> Some tid then pc.switches <- pc.switches + 1;
        pc.running <- Some tid;
        Ok ()
      end

(* The scheduler parks the core in its per-CPU idle context: the
   outgoing thread's integer state is saved into SVA memory, so the
   core no longer holds live register state for any kernel thread (and
   the thread becomes resumable from any core). *)
let swap_idle t =
  let pc = t.percpu.(Machine.cpu t.machine) in
  pc.running <- None

let running_on t ~cpu = t.percpu.(cpu).running

(* ------------------------------------------------------------------ *)
(* Program launch (execve)                                             *)

let image_digest (image : Appimage.t) =
  Bytes.to_string
    (Vg_crypto.Sha256.digest (Bytes.cat (Appimage.signed_region image) image.signature))

let reinit_icontext t ~tid ~pt ~image ~stack =
  let thread = find_thread t tid in
  let digest = image_digest image in
  let key_result =
    (* The baseline system has no signature checking or key chain:
       any image loads and no application key is recovered. *)
    if t.mode = Native_build then Ok Bytes.empty
    else
    match Hashtbl.find_opt t.exec_cache digest with
    | Some key -> Ok key
    | None ->
        let vg = Lazy.force t.vg_key in
        if not (Appimage.validate ~vg_pub:vg.Vg_crypto.Rsa.pub image) then
          Error ("refusing to launch " ^ image.Appimage.name ^ ": bad signature")
        else begin
          match Appimage.decrypt_app_key ~vg_key:vg image with
          | None -> Error "application key section corrupt"
          | Some key ->
              Hashtbl.replace t.exec_cache digest key;
              Ok key
        end
  in
  match key_result with
  | Error msg as e ->
      Machine.emit t.machine (Obs.Event.Security { subsystem = "sva.exec"; detail = msg });
      e
  | Ok key ->
      (* Unmap any ghost memory of the program being replaced so the new
         image cannot read its predecessor's secrets. *)
      let freed = ref [] in
      let ghost_vpages = ref [] in
      Pagetable.iter pt (fun vpage pte ->
          if Layout.in_ghost (Int64.shift_left vpage 12) then
            ghost_vpages := (vpage, pte.Pagetable.frame) :: !ghost_vpages);
      List.iter
        (fun (vpage, frame) ->
          Pagetable.unmap pt ~vpage;
          Phys_mem.zero_frame (Machine.mem t.machine) frame;
          Machine.charge ~tag:Obs.Tag.Zero t.machine Cost.zero_page;
          Hashtbl.remove t.uses frame;
          freed := frame :: !freed)
        !ghost_vpages;
      Machine.flush_tlb t.machine;
      if t.mode = Virtual_ghost then Hashtbl.replace t.app_keys thread.pid key;
      thread.ic <-
        Icontext.create ~pc:image.Appimage.entry ~sp:stack ~privilege:Machine.User;
      Stack.clear thread.ic_stack;
      write_mirror t thread;
      Ok (key, !freed)

let get_app_key t ~pid = Option.map Bytes.copy (Hashtbl.find_opt t.app_keys pid)

(* ------------------------------------------------------------------ *)
(* Monotonic counters (replay protection)                              *)

(* Counters live in SVA memory and persist — sealed under the TPM
   storage key — in TPM NVRAM, namespaced by a digest of the owning
   application's key so distinct applications cannot touch each other's
   counters and reboots cannot roll them back. *)

let counters_nonce = Bytes.make 8 '\x6b'

let load_counters t : (string * string, int) Hashtbl.t =
  let tpm = Machine.tpm t.machine in
  match Tpm.nvram_load tpm "vg-counters" with
  | None -> Hashtbl.create 8
  | Some sealed -> (
      let storage_key = Tpm.storage_key tpm in
      match Vg_crypto.Ctr.open_ ~key:storage_key ~nonce:counters_nonce sealed with
      | Some blob -> (Marshal.from_bytes blob 0 : (string * string, int) Hashtbl.t)
      | None -> failwith "Sva: counter store corrupt (TPM NVRAM tampering)")

let store_counters t table =
  let tpm = Machine.tpm t.machine in
  let storage_key = Tpm.storage_key tpm in
  Tpm.nvram_store tpm "vg-counters"
    (Vg_crypto.Ctr.seal ~key:storage_key ~nonce:counters_nonce
       (Marshal.to_bytes (table : (string * string, int) Hashtbl.t) []))

let counter_namespace t ~pid =
  match Hashtbl.find_opt t.app_keys pid with
  | None -> Error "sva.counter: process has no application key"
  | Some key -> Ok (Bytes.to_string (Vg_crypto.Sha256.digest key))

let counter_next t ~pid name =
  match counter_namespace t ~pid with
  | Error _ as e -> e
  | Ok ns ->
      Machine.charge ~tag:Obs.Tag.Crypto t.machine 200;
      let table = load_counters t in
      let v = 1 + Option.value ~default:0 (Hashtbl.find_opt table (ns, name)) in
      Hashtbl.replace table (ns, name) v;
      store_counters t table;
      Ok v

let counter_current t ~pid name =
  match counter_namespace t ~pid with
  | Error _ as e -> e
  | Ok ns ->
      Machine.charge ~tag:Obs.Tag.Crypto t.machine 100;
      Ok (Hashtbl.find_opt (load_counters t) (ns, name))

(* ------------------------------------------------------------------ *)
(* Signal-handler dispatch                                             *)

let permit_function t ~pid target =
  let set =
    match Hashtbl.find_opt t.permitted pid with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 8 in
        Hashtbl.replace t.permitted pid s;
        s
  in
  Hashtbl.replace set target ()

let is_permitted t ~pid target =
  match Hashtbl.find_opt t.permitted pid with
  | None -> false
  | Some s -> Hashtbl.mem s target

let ipush_function t ~tid ~target ~arg =
  let thread = find_thread t tid in
  refresh_from_mirror t thread;
  let allowed =
    match t.mode with
    | Native_build -> true
    | Virtual_ghost -> is_permitted t ~pid:thread.pid target
  in
  if not allowed then begin
    let msg =
      Printf.sprintf "sva.ipush.function: %s is not a registered handler"
        (U64.to_hex target)
    in
    Machine.emit t.machine
      (Obs.Event.Security { subsystem = "sva.ipush"; detail = msg });
    Error msg
  end
  else begin
    Stack.push (Icontext.clone thread.ic) thread.ic_stack;
    (* Add a call frame: the handler runs with the signal number in the
       first argument register and a decremented stack. *)
    thread.ic.Icontext.sp <- Int64.sub thread.ic.Icontext.sp 256L;
    thread.ic.Icontext.gprs.(0) <- arg;
    thread.ic.Icontext.pc <- target;
    write_mirror t thread;
    Ok ()
  end

let icontext_load t ~tid =
  let thread = find_thread t tid in
  if Stack.is_empty thread.ic_stack then Error "sigreturn with no saved context"
  else begin
    thread.ic <- Stack.pop thread.ic_stack;
    write_mirror t thread;
    Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Ghost memory                                                        *)

let allocgm t ~pid ~pt ~va ~frames =
  if Int64.logand va 0xfffL <> 0L then Error "allocgm: unaligned address"
  else begin
    let count = List.length frames in
    let end_va = Int64.add va (Int64.of_int (count * 4096)) in
    if not (Layout.in_ghost va && (count = 0 || Layout.in_ghost (Int64.sub end_va 1L)))
    then Error "allocgm: range outside the ghost partition"
    else begin
      let bad_frame =
        List.find_opt
          (fun frame -> frame_use t frame <> Kernel_managed || frame_mapped_somewhere t frame)
          frames
      in
      match bad_frame with
      | Some frame -> Error (Printf.sprintf "allocgm: frame %d is in use or still mapped" frame)
      | None ->
          if Machine.tracing t.machine then
            Machine.emit t.machine (Obs.Event.Ghost_alloc { pid; pages = count });
          List.iteri
            (fun i frame ->
              Phys_mem.zero_frame (Machine.mem t.machine) frame;
              Machine.charge ~tag:Obs.Tag.Zero t.machine Cost.zero_page;
              Hashtbl.replace t.uses frame (Ghost_frame pid);
              Pagetable.map pt
                ~vpage:(Int64.add (Int64.shift_right_logical va 12) (Int64.of_int i))
                {
                  Pagetable.frame;
                  perm = { writable = true; user = true; executable = true };
                })
            frames;
          Ok ()
    end
  end

let ghost_pte t ~pid ~pt ~va =
  let vpage = Int64.shift_right_logical va 12 in
  match Pagetable.lookup pt ~vpage with
  | Some pte when frame_use t pte.Pagetable.frame = Ghost_frame pid -> Some pte
  | Some _ | None -> None

let freegm t ~pid ~pt ~va ~count =
  if Int64.logand va 0xfffL <> 0L then Error "freegm: unaligned address"
  else begin
    (* A page of the range may be resident (release its frame) or
       swapped out (invalidate its freshness entry so the stored blob
       can never be restored); anything else is not this process's
       ghost memory. *)
    let page_va i = Int64.add va (Int64.of_int (i * 4096)) in
    let rec collect i acc =
      if i = count then Ok (List.rev acc)
      else begin
        match ghost_pte t ~pid ~pt ~va:(page_va i) with
        | Some pte -> collect (i + 1) (`Resident pte.Pagetable.frame :: acc)
        | None ->
            if Hashtbl.mem t.swap_versions (pid, page_va i) then
              collect (i + 1) (`Swapped (page_va i) :: acc)
            else Error "freegm: page is not ghost memory of this process"
      end
    in
    match collect 0 [] with
    | Error _ as e -> e
    | Ok pages ->
        if Machine.tracing t.machine then
          Machine.emit t.machine (Obs.Event.Ghost_free { pid; pages = count });
        let frames =
          List.concat
            (List.mapi
               (fun i page ->
                 match page with
                 | `Resident frame ->
                     Pagetable.unmap pt
                       ~vpage:
                         (Int64.add (Int64.shift_right_logical va 12) (Int64.of_int i));
                     Phys_mem.zero_frame (Machine.mem t.machine) frame;
                     Machine.charge ~tag:Obs.Tag.Zero t.machine Cost.zero_page;
                     Hashtbl.remove t.uses frame;
                     [ frame ]
                 | `Swapped page_va ->
                     Hashtbl.remove t.swap_versions (pid, page_va);
                     [])
               pages)
        in
        Machine.flush_tlb t.machine;
        Ok frames
  end

(* ------------------------------------------------------------------ *)
(* Ghost-page swapping                                                 *)

(* Sealed-blob wire format (Virtual Ghost build):

     nonce (8 bytes, clear) || Ctr.seal(swap_key, nonce, header || page)
     header = pid (8 LE) || va (8 LE) || version (8 LE)

   The nonce travels in the clear but is authenticated (the MAC covers
   nonce || ciphertext), so the VM needs to remember only the current
   *version* per page, not the nonce.  The sealed header binds the blob
   to its owner and address — a blob from another process or address
   fails as substitution even though the MAC verifies — and the version
   check against [swap_versions] rejects stale-but-valid blobs as
   replay.

   The native baseline "seals" nothing: the blob is the raw page, and
   swap-in restores whatever the kernel hands back — which is exactly
   what the swap attack suite exploits. *)

let swap_header_size = 24

let swap_header ~pid ~va ~version =
  let h = Bytes.create swap_header_size in
  Bytes.set_int64_le h 0 (Int64.of_int pid);
  Bytes.set_int64_le h 8 va;
  Bytes.set_int64_le h 16 (Int64.of_int version);
  h

let swap_refuse t ~pid ~va detail =
  Machine.emit t.machine
    (Obs.Event.Security
       {
         subsystem = "swap";
         detail =
           Printf.sprintf "swap_in pid=%d va=%s: %s" pid (Vg_util.U64.to_hex va)
             detail;
       });
  Error ("swap_in: " ^ detail)

let map_ghost_page t ~pid ~pt ~va ~frame plain =
  let phys = Int64.shift_left (Int64.of_int frame) 12 in
  Phys_mem.write_bytes (Machine.mem t.machine) ~addr:phys plain;
  Hashtbl.replace t.uses frame (Ghost_frame pid);
  Pagetable.map pt
    ~vpage:(Int64.shift_right_logical va 12)
    { Pagetable.frame; perm = { writable = true; user = true; executable = true } }

let swap_out_ghost t ~pid ~pt ~va =
  match ghost_pte t ~pid ~pt ~va with
  | None -> Error "swap_out: page is not ghost memory of this process"
  | Some pte ->
      let frame = pte.Pagetable.frame in
      let phys = Int64.shift_left (Int64.of_int frame) 12 in
      let plain = Phys_mem.read_bytes (Machine.mem t.machine) ~addr:phys ~len:4096 in
      let blob =
        match t.mode with
        | Native_build ->
            (* Baseline: the kernel stores the page as it is. *)
            Machine.charge ~tag:Obs.Tag.Copy t.machine (Cost.copy_cycles 4096);
            plain
        | Virtual_ghost ->
            (* Fresh version (and nonce) per swap-out: only the newest
               sealed image of this page will ever be accepted back. *)
            t.swap_epoch <- t.swap_epoch + 1;
            let version = t.swap_epoch in
            let nonce = Bytes.create 8 in
            Bytes.set_int64_le nonce 0 (Int64.of_int version);
            Hashtbl.replace t.swap_versions (pid, va) version;
            let payload = Bytes.cat (swap_header ~pid ~va ~version) plain in
            Machine.charge ~tag:Obs.Tag.Crypto t.machine
              (Bytes.length payload * (Cost.aes_per_byte + Cost.sha_per_byte));
            Bytes.cat nonce (Vg_crypto.Ctr.seal ~key:t.swap_key ~nonce payload)
      in
      Pagetable.unmap pt ~vpage:(Int64.shift_right_logical va 12);
      Phys_mem.zero_frame (Machine.mem t.machine) frame;
      Machine.charge ~tag:Obs.Tag.Zero t.machine Cost.zero_page;
      Hashtbl.remove t.uses frame;
      (* The owner may be live on another core with this translation
         cached — its frame is about to be recycled, so every core's
         TLB must drop it, not just the evicting core's. *)
      Machine.flush_tlb t.machine;
      Machine.tlb_shootdown t.machine;
      if Machine.tracing t.machine then
        Machine.emit t.machine (Obs.Event.Swap_out { pid; va });
      Ok (frame, blob)

let swap_in_ghost t ~pid ~pt ~va ~frame ~blob =
  match t.mode with
  | Native_build ->
      (* The baseline kernel trusts its own swap store: restore
         whatever bytes it presents, padded or truncated to a page. *)
      let plain = Bytes.make 4096 '\000' in
      Bytes.blit blob 0 plain 0 (min 4096 (Bytes.length blob));
      Machine.charge ~tag:Obs.Tag.Copy t.machine (Cost.copy_cycles 4096);
      map_ghost_page t ~pid ~pt ~va ~frame plain;
      Ok ()
  | Virtual_ghost -> (
      match Hashtbl.find_opt t.swap_versions (pid, va) with
      | None -> swap_refuse t ~pid ~va "no ghost page is swapped out here"
      | Some expected ->
          if frame_use t frame <> Kernel_managed || frame_mapped_somewhere t frame
          then swap_refuse t ~pid ~va "frame is in use or still mapped"
          else if Bytes.length blob < 8 + swap_header_size + Vg_crypto.Ctr.tag_size
          then swap_refuse t ~pid ~va "sealed blob truncated"
          else begin
            let nonce = Bytes.sub blob 0 8 in
            let sealed = Bytes.sub blob 8 (Bytes.length blob - 8) in
            Machine.charge ~tag:Obs.Tag.Crypto t.machine
              (Bytes.length sealed * (Cost.aes_per_byte + Cost.sha_per_byte));
            match Vg_crypto.Ctr.open_ ~key:t.swap_key ~nonce sealed with
            | None ->
                swap_refuse t ~pid ~va
                  "page integrity check failed (OS corrupted the blob)"
            | Some payload when Bytes.length payload <> swap_header_size + 4096 ->
                swap_refuse t ~pid ~va "sealed payload has the wrong shape"
            | Some payload ->
                let b_pid = Int64.to_int (Bytes.get_int64_le payload 0) in
                let b_va = Bytes.get_int64_le payload 8 in
                let b_version = Int64.to_int (Bytes.get_int64_le payload 16) in
                if b_pid <> pid || b_va <> va then
                  swap_refuse t ~pid ~va
                    (Printf.sprintf
                       "blob belongs to pid=%d va=%s (cross-page substitution)"
                       b_pid (Vg_util.U64.to_hex b_va))
                else if b_version <> expected then
                  swap_refuse t ~pid ~va
                    (Printf.sprintf
                       "stale sealed page: version %d, current is %d (replay)"
                       b_version expected)
                else begin
                  if Machine.tracing t.machine then
                    Machine.emit t.machine (Obs.Event.Swap_in { pid; va; ok = true });
                  Hashtbl.remove t.swap_versions (pid, va);
                  let plain =
                    Bytes.sub payload swap_header_size 4096
                  in
                  map_ghost_page t ~pid ~pt ~va ~frame plain;
                  Ok ()
                end
          end)

(* ------------------------------------------------------------------ *)
(* Randomness and programmed I/O                                       *)

let random_bytes t n = Vg_crypto.Drbg.bytes t.drbg n

let io_read t ~port =
  Machine.charge ~tag:Obs.Tag.Io t.machine Cost.mem_access;
  if Machine.tracing t.machine then
    Machine.emit t.machine (Obs.Event.Device_io { port; write = false });
  (* No readable device registers are modelled beyond a fixed pattern. *)
  Int64.logxor port 0x5aL

let io_write t ~port v =
  Machine.charge ~tag:Obs.Tag.Io t.machine Cost.mem_access;
  if Machine.tracing t.machine then
    Machine.emit t.machine (Obs.Event.Device_io { port; write = true });
  if port = iommu_config_port then begin
    match t.mode with
    | Virtual_ghost ->
        let msg = "io.write: IOMMU configuration is reserved to the VM" in
        Machine.emit t.machine
          (Obs.Event.Security { subsystem = "sva.io"; detail = msg });
        Error msg
    | Native_build ->
        (* A hostile native kernel can strip DMA protection entirely. *)
        if v = 0L then Iommu.set_protected (Machine.iommu t.machine) (fun _ -> false);
        Ok ()
  end
  else Ok ()
