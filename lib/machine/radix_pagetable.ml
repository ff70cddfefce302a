type t = {
  mem : Phys_mem.t;
  alloc_frame : unit -> int option;
  root : int;
  mutable nodes : int list; (* all node frames, root included *)
}

exception Out_of_frames

let entry_present = 1L
let entry_writable = 2L
let entry_user = 4L
let entry_nx = Int64.shift_left 1L 63

let create mem ~alloc_frame =
  match alloc_frame () with
  | None -> raise Out_of_frames
  | Some root ->
      Phys_mem.zero_frame mem root;
      { mem; alloc_frame; root; nodes = [ root ] }

let node_frames t = t.nodes

(* Index of the page-table entry for [vpage] at [level] (3 = PML4
   down to 0 = PT): 9 bits per level. *)
let index ~level vpage =
  Int64.to_int (Int64.logand (Int64.shift_right_logical vpage (9 * level)) 0x1ffL)

let check_vpage vpage =
  (* 48-bit virtual addresses: 36 bits of page number.  The canonical
     kernel half has bits 47..63 all set; fold them away first. *)
  if Int64.unsigned_compare vpage (Int64.shift_left 1L 36) >= 0 then
    Int64.logand vpage 0xf_ffff_ffffL
  else vpage

let entry_addr frame idx = Int64.add (Int64.shift_left (Int64.of_int frame) 12) (Int64.of_int (8 * idx))

let read_entry t frame idx = Phys_mem.read t.mem ~addr:(entry_addr frame idx) ~len:8
let write_entry t frame idx v = Phys_mem.write t.mem ~addr:(entry_addr frame idx) ~len:8 v

let frame_of_entry e = Int64.to_int (Int64.logand (Int64.shift_right_logical e 12) 0x7f_ffff_ffffL)

let encode (pte : Pagetable.pte) =
  let e = Int64.logor entry_present (Int64.shift_left (Int64.of_int pte.Pagetable.frame) 12) in
  let e = if pte.Pagetable.perm.writable then Int64.logor e entry_writable else e in
  let e = if pte.Pagetable.perm.user then Int64.logor e entry_user else e in
  if pte.Pagetable.perm.executable then e else Int64.logor e entry_nx

let decode e : Pagetable.pte =
  {
    Pagetable.frame = frame_of_entry e;
    perm =
      {
        writable = Int64.logand e entry_writable <> 0L;
        user = Int64.logand e entry_user <> 0L;
        executable = Int64.logand e entry_nx = 0L;
      };
  }

(* Descend to the PT node for [vpage], allocating levels if asked. *)
let rec descend t frame level vpage ~alloc =
  if level = 0 then Some frame
  else begin
    let idx = index ~level vpage in
    let e = read_entry t frame idx in
    if Int64.logand e entry_present <> 0L then
      descend t (frame_of_entry e) (level - 1) vpage ~alloc
    else if not alloc then None
    else begin
      match t.alloc_frame () with
      | None -> raise Out_of_frames
      | Some fresh ->
          Phys_mem.zero_frame t.mem fresh;
          t.nodes <- fresh :: t.nodes;
          (* Intermediate entries are present+writable+user; the leaf
             carries the real permissions, as on x86-64 kernels. *)
          write_entry t frame idx
            (Int64.logor
               (Int64.logor entry_present (Int64.logor entry_writable entry_user))
               (Int64.shift_left (Int64.of_int fresh) 12));
          descend t fresh (level - 1) vpage ~alloc
    end
  end

let map t ~vpage pte =
  let vpage = check_vpage vpage in
  match descend t t.root 3 vpage ~alloc:true with
  | None -> assert false
  | Some pt_frame -> write_entry t pt_frame (index ~level:0 vpage) (encode pte)

let unmap t ~vpage =
  let vpage = check_vpage vpage in
  match descend t t.root 3 vpage ~alloc:false with
  | None -> ()
  | Some pt_frame -> write_entry t pt_frame (index ~level:0 vpage) 0L

let lookup t ~vpage =
  let vpage = check_vpage vpage in
  match descend t t.root 3 vpage ~alloc:false with
  | None -> None
  | Some pt_frame ->
      let e = read_entry t pt_frame (index ~level:0 vpage) in
      if Int64.logand e entry_present = 0L then None else Some (decode e)

let walk_length t ~vpage =
  let vpage = check_vpage vpage in
  let rec go frame level steps =
    if level = 0 then steps + 1
    else begin
      let e = read_entry t frame (index ~level vpage) in
      if Int64.logand e entry_present = 0L then steps
      else go (frame_of_entry e) (level - 1) (steps + 1)
    end
  in
  go t.root 3 0
