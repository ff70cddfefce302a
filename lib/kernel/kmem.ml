type t = {
  machine : Machine.t;
  mode : Sva.mode;
  mitigation : Vg_compiler.Mitigation.t;
}

let create ?(mitigation = Vg_compiler.Mitigation.Off) sva =
  { machine = Sva.machine sva; mode = Sva.mode sva; mitigation }

let machine t = t.machine

(* The Spectre hardening the kernel was compiled under costs extra
   cycles per memory operand, exactly as the instrumented-IR path pays
   them: an lfence before every access under [Fence], or the two
   instructions by which the branchless mask exceeds the predicated
   window under [Safe_mask]. *)
let spec_surcharge t n =
  match t.mitigation with
  | Vg_compiler.Mitigation.Off -> ()
  | Vg_compiler.Mitigation.Fence ->
      Machine.charge ~tag:Obs.Tag.Spec t.machine
        (n * Vg_compiler.Fence_pass.fence_cycles)
  | Vg_compiler.Mitigation.Safe_mask ->
      Machine.charge ~tag:Obs.Tag.Spec t.machine
        (n * (Vg_compiler.Sandbox_pass.safe_mask_instructions - Cost.sandbox_mask))

let effective t addr =
  match t.mode with
  | Sva.Native_build -> addr
  | Sva.Virtual_ghost ->
      Machine.charge ~tag:Obs.Tag.Mask t.machine Cost.sandbox_mask;
      spec_surcharge t 1;
      Vg_compiler.Sandbox_pass.masked_address addr

(* A masked access that still faulted: under Virtual Ghost that means
   instrumented kernel code aimed at memory the sandbox denies it
   (e.g. a ghost address forced out of range) — a defence engaging, so
   it must not pass silently. *)
let fault t what addr =
  if t.mode = Sva.Virtual_ghost && Machine.tracing t.machine then
    Machine.emit t.machine
      (Obs.Event.Security
         {
           subsystem = "sandbox";
           detail = Printf.sprintf "masked kernel %s at %s faulted" what (U64.to_hex addr);
         })

(* Kernel accesses always run at kernel privilege; restore afterwards so
   interleaved user-level code is unaffected. *)
let as_kernel t f =
  let saved = Machine.privilege t.machine in
  Machine.set_privilege t.machine Machine.Kernel;
  Fun.protect ~finally:(fun () -> Machine.set_privilege t.machine saved) f

let store t addr ~len v =
  let ea = effective t addr in
  as_kernel t (fun () ->
      try Machine.write_virt t.machine ea ~len v
      with Machine.Page_fault _ | Phys_mem.Bad_physical_address _ -> fault t "store" addr)

let read_bytes t addr ~len =
  let out = Bytes.create len in
  let pos = ref 0 in
  as_kernel t (fun () ->
      while !pos < len do
        let va = Int64.add addr (Int64.of_int !pos) in
        let page_off = Int64.to_int (Int64.logand va 0xfffL) in
        let chunk = min (len - !pos) (4096 - page_off) in
        let ea = effective t va in
        (try Machine.read_into_virt t.machine ea out ~off:!pos ~len:chunk
         with Machine.Page_fault _ | Phys_mem.Bad_physical_address _ ->
           fault t "read" va;
           Bytes.fill out !pos chunk '\000');
        pos := !pos + chunk
      done);
  out

let write_bytes t addr src =
  let len = Bytes.length src in
  let pos = ref 0 in
  as_kernel t (fun () ->
      while !pos < len do
        let va = Int64.add addr (Int64.of_int !pos) in
        let page_off = Int64.to_int (Int64.logand va 0xfffL) in
        let chunk = min (len - !pos) (4096 - page_off) in
        let ea = effective t va in
        (try Machine.write_from_virt t.machine ea src ~off:!pos ~len:chunk
         with Machine.Page_fault _ | Phys_mem.Bad_physical_address _ ->
           fault t "write" va);
        pos := !pos + chunk
      done)

(* [n * (mem_access + sandbox_mask)] split by distributivity so the
   mask surcharge is attributed separately; the total is unchanged. *)
let work t n =
  Machine.charge ~tag:Obs.Tag.Kernel_work t.machine (n * Cost.mem_access);
  match t.mode with
  | Sva.Native_build -> ()
  | Sva.Virtual_ghost ->
      Machine.charge ~tag:Obs.Tag.Mask t.machine (n * Cost.sandbox_mask);
      spec_surcharge t n

let fn_entry t =
  match t.mode with
  | Sva.Native_build -> ()
  | Sva.Virtual_ghost -> Machine.charge ~tag:Obs.Tag.Cfi t.machine Cost.cfi_call
