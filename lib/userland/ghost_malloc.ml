(* Arena layout: contiguous blocks, each
     [magic:8][size_and_used:8][payload: size bytes]
   with size a multiple of 16.  The block list is implicit (walk by
   size); freeing marks the block and coalescing happens during the
   next allocation walk. *)

let header_bytes = 16
let magic = 0x474d5f424c4f434bL (* "GM_BLOCK" *)
let align16 n = (n + 15) / 16 * 16
let grow_pages = 32

type t = {
  ctx : Runtime.ctx;
  mutable base : int64;
  mutable brk : int64; (* end of the initialised arena *)
  mutable limit : int64; (* end of mapped arena memory *)
  mutable live : int;
  mutable live_bytes : int;
}

let read64 t addr = Bytes.get_int64_le (Runtime.peek t.ctx addr 8) 0

let write64 t addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Runtime.poke t.ctx addr b

let block_size word = Int64.to_int (Int64.shift_right_logical word 1)
let block_used word = Int64.logand word 1L = 1L
let pack ~size ~used = Int64.logor (Int64.shift_left (Int64.of_int size) 1) (if used then 1L else 0L)

(* Fixed, contiguous arena placements: a dedicated ghost range above
   the runtime's bump heap, and a dedicated traditional range far from
   the mmap cursor. *)
let ghost_arena_base = Int64.add Layout.ghost_start 0x1800_0000L
let traditional_arena_base = 0x0000_3000_0000_0000L

let grow t min_bytes =
  let pages = max grow_pages ((min_bytes + 4095) / 4096) in
  let bytes = pages * 4096 in
  if t.limit = 0L then begin
    let va = if t.ctx.Runtime.ghosting then ghost_arena_base else traditional_arena_base in
    t.base <- va;
    t.brk <- va;
    t.limit <- va
  end;
  (if t.ctx.Runtime.ghosting then begin
     match Syscalls.allocgm t.ctx.Runtime.kernel t.ctx.Runtime.proc ~va:t.limit ~pages with
     | Ok () -> ()
     | Error e -> raise (Runtime.App_crash ("ghost_malloc: " ^ Errno.to_string e))
   end
   else begin
     match
       Kernel.ensure_user_range t.ctx.Runtime.kernel t.ctx.Runtime.proc t.limit ~len:bytes
     with
     | Ok () -> ()
     | Error e -> raise (Runtime.App_crash ("malloc: " ^ Errno.to_string e))
   end);
  t.limit <- Int64.add t.limit (Int64.of_int bytes)

let create ctx =
  { ctx; base = 0L; brk = 0L; limit = 0L; live = 0; live_bytes = 0 }

let payload_of hdr = Int64.add hdr (Int64.of_int header_bytes)
let header_of payload = Int64.sub payload (Int64.of_int header_bytes)

let next_header t hdr =
  let word = read64 t (Int64.add hdr 8L) in
  Int64.add hdr (Int64.of_int (header_bytes + block_size word))

(* Walk blocks [base, brk), coalescing runs of free blocks, looking for
   a free block of at least [need] bytes. *)
let find_fit t need =
  let rec walk hdr =
    if Vg_util.U64.ge hdr t.brk then None
    else begin
      if read64 t hdr <> magic then
        raise (Runtime.App_crash "ghost_malloc: corrupted heap (bad magic)");
      let word = read64 t (Int64.add hdr 8L) in
      if block_used word then walk (next_header t hdr)
      else begin
        (* Coalesce the following free blocks into this one. *)
        let size = ref (block_size word) in
        let n = ref (next_header t hdr) in
        let continue = ref true in
        while !continue && Vg_util.U64.lt !n t.brk do
          let nword = read64 t (Int64.add !n 8L) in
          if block_used nword then continue := false
          else begin
            size := !size + header_bytes + block_size nword;
            n := Int64.add !n (Int64.of_int (header_bytes + block_size nword))
          end
        done;
        if !size <> block_size word then
          write64 t (Int64.add hdr 8L) (pack ~size:!size ~used:false);
        if !size >= need then Some hdr else walk (next_header t hdr)
      end
    end
  in
  walk t.base

let malloc t n =
  let need = align16 (max 16 n) in
  let place hdr =
    let word = read64 t (Int64.add hdr 8L) in
    let have = block_size word in
    if have >= need + header_bytes + 16 then begin
      (* Split: the tail becomes a free block. *)
      write64 t (Int64.add hdr 8L) (pack ~size:need ~used:true);
      let tail = Int64.add hdr (Int64.of_int (header_bytes + need)) in
      write64 t tail magic;
      write64 t (Int64.add tail 8L)
        (pack ~size:(have - need - header_bytes) ~used:false)
    end
    else write64 t (Int64.add hdr 8L) (pack ~size:have ~used:true);
    t.live <- t.live + 1;
    t.live_bytes <- t.live_bytes + need;
    payload_of hdr
  in
  match (if t.limit = 0L then None else find_fit t need) with
  | Some hdr -> place hdr
  | None ->
      (* Append a fresh block at the break, growing the mapping. *)
      let total = header_bytes + need in
      if Vg_util.U64.gt (Int64.add t.brk (Int64.of_int total)) t.limit then
        grow t total;
      let hdr = t.brk in
      write64 t hdr magic;
      write64 t (Int64.add hdr 8L) (pack ~size:need ~used:true);
      t.brk <- Int64.add t.brk (Int64.of_int total);
      t.live <- t.live + 1;
      t.live_bytes <- t.live_bytes + need;
      payload_of hdr

let validate_live t payload =
  let hdr = header_of payload in
  if
    Vg_util.U64.lt hdr t.base
    || Vg_util.U64.ge hdr t.brk
    || read64 t hdr <> magic
  then invalid_arg "Ghost_malloc.free: not a heap pointer";
  let word = read64 t (Int64.add hdr 8L) in
  if not (block_used word) then invalid_arg "Ghost_malloc.free: double free";
  (hdr, block_size word)

let free t payload =
  let hdr, size = validate_live t payload in
  write64 t (Int64.add hdr 8L) (pack ~size ~used:false);
  t.live <- t.live - 1;
  t.live_bytes <- t.live_bytes - size

let realloc t payload n =
  let _, old_size = validate_live t payload in
  let fresh = malloc t n in
  let keep = min old_size (align16 (max 16 n)) in
  Runtime.poke t.ctx fresh (Runtime.peek t.ctx payload keep);
  free t payload;
  fresh

let live_blocks t = t.live

let check_integrity t =
  if t.limit = 0L then Ok ()
  else begin
    let rec walk hdr count =
      if Vg_util.U64.ge hdr t.brk then Ok ()
      else if read64 t hdr <> magic then
        Error (Printf.sprintf "block %d at %s: bad magic" count (Vg_util.U64.to_hex hdr))
      else begin
        let word = read64 t (Int64.add hdr 8L) in
        let size = block_size word in
        if size <= 0 || size mod 16 <> 0 then
          Error (Printf.sprintf "block %d at %s: bad size %d" count (Vg_util.U64.to_hex hdr) size)
        else walk (next_header t hdr) (count + 1)
      end
    in
    walk t.base 0
  end
