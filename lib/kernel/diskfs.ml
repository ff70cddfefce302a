(* On-disk layout (4 KiB blocks):
     block 0                superblock
     blocks 1..64           inode table (2048 inodes x 128 B)
     block 65               block bitmap (covers up to 32768 blocks)
     block 66               inode bitmap
     blocks 67..            data
   Inode (128 B): type(4) nlink(4) size(8) indirect(4) direct[12]x4.
   Directory entry (32 B): ino(4) name(28, NUL-padded); ino 0 = free. *)

let magic = 0x56474653L (* "VGFS" *)
let block_bytes = Buffer_cache.block_bytes
let inode_size = 128
let inodes_per_block = block_bytes / inode_size
let inode_table_start = 1
let inode_table_blocks = 64
let max_inodes = inode_table_blocks * inodes_per_block
let block_bitmap_block = 65
let inode_bitmap_block = 66
let data_start = 67
let direct_count = 12
let indirect_entries = block_bytes / 4
let dirent_size = 32
let name_max = 27

type itype = Reg | Dir

type stat = { ino : int; itype : itype; size : int; nlink : int }

type inode = {
  mutable itype : itype;
  mutable nlink : int;
  mutable size : int;
  mutable indirect : int; (* 0 = none *)
  direct : int array; (* 0 = hole *)
}

type t = { bc : Buffer_cache.t; charge_work : int -> unit }

let root_ino = 1

(* ------------------------------------------------------------------ *)
(* Low-level helpers                                                   *)

(* Metadata manipulation is instrumented kernel code: charge [n]
   kernel memory operations (the buffer cache charges separately for
   its own lookups and for data copies). *)
let charge t n = t.charge_work n

(* Bitmaps: bit set = in use. *)
let bitmap_get t block idx =
  let byte = idx / 8 and bit = idx mod 8 in
  Buffer_cache.view t.bc block (fun data ->
      Char.code (Bytes.get data byte) land (1 lsl bit) <> 0)

let bitmap_set t block idx v =
  let byte = idx / 8 and bit = idx mod 8 in
  Buffer_cache.modify t.bc block (fun data ->
      let cur = Char.code (Bytes.get data byte) in
      let next = if v then cur lor (1 lsl bit) else cur land lnot (1 lsl bit) in
      Bytes.set data byte (Char.chr next))

(* A read-only scan: the [bitmap_set] that claims the bit dirties the
   block, and a full bitmap is left clean. *)
let bitmap_find_free t block limit =
  Buffer_cache.view t.bc block (fun data ->
      let rec scan byte =
        if byte * 8 >= limit then None
        else
          let v = Char.code (Bytes.get data byte) in
          if v = 0xff then scan (byte + 1) else scan_bits byte v 0
      and scan_bits byte v bit =
        let idx = (byte * 8) + bit in
        if bit = 8 then scan (byte + 1)
        else if idx >= limit then None
        else if v land (1 lsl bit) = 0 then Some idx
        else scan_bits byte v (bit + 1)
      in
      scan 0)

let alloc_block t =
  charge t 250;
  let limit = Buffer_cache.blocks t.bc - data_start in
  match bitmap_find_free t block_bitmap_block limit with
  | None -> None
  | Some idx ->
      bitmap_set t block_bitmap_block idx true;
      let b = data_start + idx in
      Buffer_cache.zero t.bc b;
      Some b

let free_block t b =
  charge t 120;
  if b >= data_start then bitmap_set t block_bitmap_block (b - data_start) false

let free_blocks t =
  let limit = Buffer_cache.blocks t.bc - data_start in
  let count = ref 0 in
  for idx = 0 to limit - 1 do
    if not (bitmap_get t block_bitmap_block idx) then incr count
  done;
  !count

(* ------------------------------------------------------------------ *)
(* Inodes                                                              *)

let inode_location ino =
  let block = inode_table_start + (ino / inodes_per_block) in
  let off = ino mod inodes_per_block * inode_size in
  (block, off)

let read_inode t ino : inode option =
  if ino <= 0 || ino >= max_inodes then None
  else begin
    charge t 60;
    let block, off = inode_location ino in
    Buffer_cache.view t.bc block (fun data ->
        let ity = Bytes.get_int32_le data off in
        if ity = 0l then None
        else begin
          let direct = Array.make direct_count 0 in
          for i = 0 to direct_count - 1 do
            direct.(i) <- Int32.to_int (Bytes.get_int32_le data (off + 20 + (4 * i)))
          done;
          Some
            {
              itype = (if ity = 2l then Dir else Reg);
              nlink = Int32.to_int (Bytes.get_int32_le data (off + 4));
              size = Int64.to_int (Bytes.get_int64_le data (off + 8));
              indirect = Int32.to_int (Bytes.get_int32_le data (off + 16));
              direct;
            }
        end)
  end

let write_inode t ino (inode : inode option) =
  charge t 60;
  let block, off = inode_location ino in
  Buffer_cache.modify t.bc block (fun data ->
      match inode with
      | None -> Bytes.fill data off inode_size '\000'
      | Some i ->
          Bytes.set_int32_le data off (match i.itype with Reg -> 1l | Dir -> 2l);
          Bytes.set_int32_le data (off + 4) (Int32.of_int i.nlink);
          Bytes.set_int64_le data (off + 8) (Int64.of_int i.size);
          Bytes.set_int32_le data (off + 16) (Int32.of_int i.indirect);
          Array.iteri
            (fun k v -> Bytes.set_int32_le data (off + 20 + (4 * k)) (Int32.of_int v))
            i.direct)

let alloc_inode t itype =
  charge t 400;
  match bitmap_find_free t inode_bitmap_block max_inodes with
  | None -> None
  | Some idx when idx = 0 ->
      (* inode 0 is reserved; mark and retry once *)
      bitmap_set t inode_bitmap_block 0 true;
      (match bitmap_find_free t inode_bitmap_block max_inodes with
      | None -> None
      | Some idx ->
          bitmap_set t inode_bitmap_block idx true;
          write_inode t idx
            (Some { itype; nlink = 1; size = 0; indirect = 0; direct = Array.make direct_count 0 });
          Some idx)
  | Some idx ->
      bitmap_set t inode_bitmap_block idx true;
      write_inode t idx
        (Some { itype; nlink = 1; size = 0; indirect = 0; direct = Array.make direct_count 0 });
      Some idx

(* Map a logical block index to a disk block; optionally allocating. *)
let block_of t inode ~logical ~alloc =
  if logical < direct_count then begin
    if inode.direct.(logical) = 0 && alloc then begin
      match alloc_block t with
      | None -> None
      | Some b ->
          inode.direct.(logical) <- b;
          Some b
    end
    else if inode.direct.(logical) = 0 then None
    else Some inode.direct.(logical)
  end
  else begin
    let slot = logical - direct_count in
    if slot >= indirect_entries then None
    else begin
      if inode.indirect = 0 && alloc then begin
        match alloc_block t with
        | None -> ()
        | Some b -> inode.indirect <- b
      end;
      if inode.indirect = 0 then None
      else begin
        charge t 30;
        let current =
          Buffer_cache.view t.bc inode.indirect (fun data ->
              Int32.to_int (Bytes.get_int32_le data (4 * slot)))
        in
        if current <> 0 then Some current
        else if not alloc then None
        else begin
          match alloc_block t with
          | None -> None
          | Some b ->
              Buffer_cache.modify t.bc inode.indirect (fun data ->
                  Bytes.set_int32_le data (4 * slot) (Int32.of_int b));
              Some b
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* File contents                                                       *)

let read t ~ino ~off ~len : bytes Errno.result =
  match read_inode t ino with
  | None -> Error Errno.ENOENT
  | Some inode ->
      if off < 0 || len < 0 then Error Errno.EINVAL
      else begin
        let len = max 0 (min len (inode.size - off)) in
        let out = Bytes.create len in
        let pos = ref 0 in
        while !pos < len do
          let file_off = off + !pos in
          let logical = file_off / block_bytes in
          let block_off = file_off mod block_bytes in
          let chunk = min (len - !pos) (block_bytes - block_off) in
          (match block_of t inode ~logical ~alloc:false with
          | None -> Bytes.fill out !pos chunk '\000' (* hole *)
          | Some b ->
              Buffer_cache.view t.bc b (fun data ->
                  Bytes.blit data block_off out !pos chunk);
              charge t (max 1 (chunk / 64)));
          pos := !pos + chunk
        done;
        Ok out
      end

let write t ~ino ~off src : int Errno.result =
  match read_inode t ino with
  | None -> Error Errno.ENOENT
  | Some inode ->
      if off < 0 then Error Errno.EINVAL
      else begin
        let len = Bytes.length src in
        let pos = ref 0 in
        let error = ref None in
        while !pos < len && !error = None do
          let file_off = off + !pos in
          let logical = file_off / block_bytes in
          let block_off = file_off mod block_bytes in
          let chunk = min (len - !pos) (block_bytes - block_off) in
          (match block_of t inode ~logical ~alloc:true with
          | None -> error := Some Errno.ENOSPC
          | Some b ->
              Buffer_cache.modify t.bc b (fun data ->
                  Bytes.blit src !pos data block_off chunk));
          pos := !pos + chunk
        done;
        match !error with
        | Some e ->
            inode.size <- max inode.size (off + !pos);
            write_inode t ino (Some inode);
            Error e
        | None ->
            inode.size <- max inode.size (off + len);
            write_inode t ino (Some inode);
            Ok len
      end

let inode_blocks inode =
  let blocks = ref [] in
  Array.iter (fun b -> if b <> 0 then blocks := b :: !blocks) inode.direct;
  !blocks

let truncate t ~ino ~len : unit Errno.result =
  match read_inode t ino with
  | None -> Error Errno.ENOENT
  | Some inode ->
      if len > inode.size then Error Errno.EINVAL
      else begin
        let keep_blocks = (len + block_bytes - 1) / block_bytes in
        (* Free direct blocks beyond the kept range. *)
        for i = 0 to direct_count - 1 do
          if i >= keep_blocks && inode.direct.(i) <> 0 then begin
            free_block t inode.direct.(i);
            inode.direct.(i) <- 0
          end
        done;
        (* Free indirect-mapped blocks beyond the kept range. *)
        if inode.indirect <> 0 then begin
          let still_used = ref false in
          Buffer_cache.modify t.bc inode.indirect (fun data ->
              for slot = 0 to indirect_entries - 1 do
                let logical = direct_count + slot in
                let b = Int32.to_int (Bytes.get_int32_le data (4 * slot)) in
                if b <> 0 then
                  if logical >= keep_blocks then begin
                    free_block t b;
                    Bytes.set_int32_le data (4 * slot) 0l
                  end
                  else still_used := true
              done);
          if not !still_used then begin
            free_block t inode.indirect;
            inode.indirect <- 0
          end
        end;
        inode.size <- len;
        write_inode t ino (Some inode);
        Ok ()
      end

(* ------------------------------------------------------------------ *)
(* Directories                                                         *)

(* Walk a directory's live entries in place through the cache (a real
   kernel scans the buffer's contents; it does not copy the block):
   [f slot ino data off] sees each used slot, whose NUL-padded name is
   [data] at [off + 4].  Each block costs one [block_of], one cache
   lookup and 8 kernel-work units per slot scanned, charged once per
   block — the same total as per slot, since preemption is taken only
   at the trap epilogue. *)
let scan_dir t inode f =
  let nents = inode.size / dirent_size in
  let per_block = block_bytes / dirent_size in
  let nblocks = (inode.size + block_bytes - 1) / block_bytes in
  for blk = 0 to nblocks - 1 do
    match block_of t inode ~logical:blk ~alloc:false with
    | None -> ()
    | Some b ->
        Buffer_cache.view t.bc b (fun data ->
            let first = blk * per_block in
            let last = min (nents - 1) (first + per_block - 1) in
            if last >= first then charge t (8 * (last - first + 1));
            for slot = first to last do
              let off = slot mod per_block * dirent_size in
              let ino = Int32.to_int (Bytes.get_int32_le data off) in
              if ino <> 0 then f slot ino data off
            done)
  done

(* The stored name ends at its first NUL or after [name_max] bytes. *)
let dirent_name data off =
  let rec len i =
    if i = name_max || Bytes.get data (off + 4 + i) = '\000' then i else len (i + 1)
  in
  Bytes.sub_string data (off + 4) (len 0)

(* [name] equals the stored name, compared in place. *)
let name_matches data off name =
  let n = String.length name in
  let rec same i =
    i = n || (name.[i] <> '\000' && Bytes.get data (off + 4 + i) = name.[i] && same (i + 1))
  in
  n <= name_max && (n = name_max || Bytes.get data (off + 4 + n) = '\000') && same 0

(* Live entries as [(name, ino)], in slot order. *)
let dir_entries t inode =
  let entries = ref [] in
  scan_dir t inode (fun _ ino data off ->
      entries := (dirent_name data off, ino) :: !entries);
  List.rev !entries

let write_dirent t dir_ino ~slot ~name ~target =
  let entry = Bytes.make dirent_size '\000' in
  Bytes.set_int32_le entry 0 (Int32.of_int target);
  Bytes.blit_string name 0 entry 4 (String.length name);
  Result.map ignore (write t ~ino:dir_ino ~off:(slot * dirent_size) entry)

(* The lowest slot holding [name], as [(slot, ino)].  The scan goes on
   past a match: a lookup is charged for every slot. *)
let find_entry t inode name =
  let found = ref None in
  scan_dir t inode (fun slot ino data off ->
      if Option.is_none !found && name_matches data off name then
        found := Some (slot, ino));
  !found

(* Split an absolute path into components. *)
let components path =
  if String.length path = 0 || path.[0] <> '/' then None
  else Some (List.filter (fun s -> s <> "") (String.split_on_char '/' path))

let rec resolve t ino = function
  | [] -> Ok ino
  | name :: rest -> (
      (* namei: per-component locking, hashing, permission checks. *)
      charge t 300;
      match read_inode t ino with
      | None -> Error Errno.ENOENT
      | Some inode when inode.itype <> Dir -> Error Errno.ENOTDIR
      | Some inode -> (
          match find_entry t inode name with
          | None -> Error Errno.ENOENT
          | Some (_, child) -> resolve t child rest))

let lookup t path =
  match components path with
  | None -> Error Errno.EINVAL
  | Some comps -> resolve t root_ino comps

(* Resolve the parent directory and leaf name of a path. *)
let parent_of t path =
  match components path with
  | None | Some [] -> Error Errno.EINVAL
  | Some comps -> (
      let rec split = function
        | [ leaf ] -> ([], leaf)
        | x :: rest ->
            let dirs, leaf = split rest in
            (x :: dirs, leaf)
        | [] -> assert false
      in
      let dirs, leaf = split comps in
      if String.length leaf > name_max then Error Errno.EINVAL
      else
        match resolve t root_ino dirs with
        | Error e -> Error e
        | Ok dir_ino -> Ok (dir_ino, leaf))

let add_entry t dir_ino name target =
  match read_inode t dir_ino with
  | None -> Error Errno.ENOENT
  | Some dir when dir.itype <> Dir -> Error Errno.ENOTDIR
  | Some dir -> (
      match find_entry t dir name with
      | Some _ -> Error Errno.EEXIST
      | None ->
          (* Reuse the lowest free slot if any, else append. *)
          let nents = dir.size / dirent_size in
          let used = Bytes.make nents '\000' in
          scan_dir t dir (fun slot _ _ _ -> Bytes.set used slot '\001');
          let rec first_free k =
            if k < nents && Bytes.get used k <> '\000' then first_free (k + 1) else k
          in
          write_dirent t dir_ino ~slot:(first_free 0) ~name ~target)

let remove_entry t dir_ino name =
  match read_inode t dir_ino with
  | None -> Error Errno.ENOENT
  | Some dir -> (
      match find_entry t dir name with
      | None -> Error Errno.ENOENT
      | Some (slot, target) -> (
          match write t ~ino:dir_ino ~off:(slot * dirent_size) (Bytes.make dirent_size '\000') with
          | Ok _ -> Ok target
          | Error e -> Error e))

let make_node t path itype : int Errno.result =
  charge t 800;
  match parent_of t path with
  | Error e -> Error e
  | Ok (dir_ino, leaf) -> (
      match alloc_inode t itype with
      | None -> Error Errno.ENOSPC
      | Some ino -> (
          match add_entry t dir_ino leaf ino with
          | Ok () -> Ok ino
          | Error e ->
              bitmap_set t inode_bitmap_block ino false;
              write_inode t ino None;
              Error e))

let create t path = make_node t path Reg
let mkdir t path = make_node t path Dir

let free_inode_storage t ino inode =
  List.iter (free_block t) (inode_blocks inode);
  if inode.indirect <> 0 then begin
    Buffer_cache.modify t.bc inode.indirect (fun data ->
        for slot = 0 to indirect_entries - 1 do
          let b = Int32.to_int (Bytes.get_int32_le data (4 * slot)) in
          if b <> 0 then free_block t b
        done);
    free_block t inode.indirect
  end;
  bitmap_set t inode_bitmap_block ino false;
  write_inode t ino None

let unlink t path : unit Errno.result =
  charge t 800;
  match parent_of t path with
  | Error e -> Error e
  | Ok (dir_ino, leaf) -> (
      match lookup t path with
      | Error e -> Error e
      | Ok ino -> (
          match read_inode t ino with
          | None -> Error Errno.ENOENT
          | Some inode when inode.itype = Dir -> Error Errno.EISDIR
          | Some inode -> (
              match remove_entry t dir_ino leaf with
              | Error e -> Error e
              | Ok _ ->
                  free_inode_storage t ino inode;
                  Ok ())))

let rmdir t path : unit Errno.result =
  match parent_of t path with
  | Error e -> Error e
  | Ok (dir_ino, leaf) -> (
      match lookup t path with
      | Error e -> Error e
      | Ok ino -> (
          match read_inode t ino with
          | None -> Error Errno.ENOENT
          | Some inode when inode.itype <> Dir -> Error Errno.ENOTDIR
          | Some inode ->
              if dir_entries t inode <> [] then Error Errno.ENOTEMPTY
              else begin
                match remove_entry t dir_ino leaf with
                | Error e -> Error e
                | Ok _ ->
                    free_inode_storage t ino inode;
                    Ok ()
              end))

let rename t ~src ~dst : unit Errno.result =
  charge t 600;
  match (parent_of t src, parent_of t dst) with
  | Error e, _ | _, Error e -> Error e
  | Ok (src_dir, src_leaf), Ok (dst_dir, dst_leaf) -> (
      match lookup t src with
      | Error e -> Error e
      (* Onto itself: a no-op (the replace path below would free it). *)
      | Ok _ when src_dir = dst_dir && src_leaf = dst_leaf -> Ok ()
      | Ok ino -> (
          (* Replace an existing regular file at the destination. *)
          (match lookup t dst with
          | Ok existing -> (
              match read_inode t existing with
              | Some inode when inode.itype = Reg ->
                  (match remove_entry t dst_dir dst_leaf with
                  | Ok _ -> free_inode_storage t existing inode
                  | Error _ -> ())
              | Some _ | None -> ())
          | Error _ -> ());
          match add_entry t dst_dir dst_leaf ino with
          | Error e -> Error e
          | Ok () -> (
              match remove_entry t src_dir src_leaf with
              | Ok _ -> Ok ()
              | Error e -> Error e)))

let readdir t ~ino : (string * int) list Errno.result =
  match read_inode t ino with
  | None -> Error Errno.ENOENT
  | Some inode when inode.itype <> Dir -> Error Errno.ENOTDIR
  | Some inode -> Ok (dir_entries t inode)

let stat t ~ino : stat Errno.result =
  match read_inode t ino with
  | None -> Error Errno.ENOENT
  | Some inode -> Ok { ino; itype = inode.itype; size = inode.size; nlink = inode.nlink }

(* ------------------------------------------------------------------ *)
(* Formatting and mounting                                             *)

let mkfs ?(charge_work = fun _ -> ()) bc =
  let t = { bc; charge_work } in
  (* Clear metadata blocks. *)
  for b = 0 to data_start - 1 do
    Buffer_cache.zero bc b
  done;
  let sb = Bytes.make block_bytes '\000' in
  Bytes.set_int64_le sb 0 magic;
  Buffer_cache.write bc 0 sb;
  (* Reserve inode 0 and create the root directory as inode 1. *)
  bitmap_set t inode_bitmap_block 0 true;
  bitmap_set t inode_bitmap_block root_ino true;
  write_inode t root_ino
    (Some { itype = Dir; nlink = 2; size = 0; indirect = 0; direct = Array.make direct_count 0 });
  t

let mount ?(charge_work = fun _ -> ()) bc =
  let sb = Buffer_cache.read bc 0 in
  if Bytes.get_int64_le sb 0 <> magic then Error "Diskfs.mount: bad superblock magic"
  else Ok { bc; charge_work }

let sync t = Buffer_cache.sync t.bc
