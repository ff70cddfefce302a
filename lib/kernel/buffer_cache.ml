let block_bytes = 4096
let sectors_per_block = block_bytes / Disk.sector_bytes

(* Blocks live in a [Tbl.Int] table.  Its iteration order is
   irrelevant: eviction picks the unique minimum stamp and [sync] writes
   the same sectors in any order. *)

type entry = { data : bytes; mutable dirty : bool; mutable stamp : int }

type t = {
  disk : Disk.t;
  kmem : Kmem.t;
  capacity : int;
  cache : entry Tbl.Int.t;
  mutable lock : Spinlock.t option;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 1024) ~kmem disk =
  {
    disk;
    kmem;
    capacity;
    cache = Tbl.Int.create capacity;
    lock = None;
    tick = 0;
    hits = 0;
    misses = 0;
  }

let set_lock t lock = t.lock <- Some lock

(* Every public operation runs under the cache's spinlock once the
   kernel installs one (free on one CPU; a cache-line transfer when
   cores alternate). *)
let guarded t f =
  match t.lock with
  | None -> f ()
  | Some l ->
      (* Filesystem operations nest (a [modify] callback freeing blocks
         touches the bitmap block); same-core nesting is not contention. *)
      if Spinlock.held_by_current l then f () else Spinlock.with_lock l f

let blocks t = Disk.sectors t.disk / sectors_per_block

let flush_entry t b entry =
  if entry.dirty then begin
    Disk.write_range t.disk ~sector:(b * sectors_per_block) entry.data;
    entry.dirty <- false
  end

let evict_if_full t =
  if Tbl.Int.length t.cache >= t.capacity then begin
    (* Evict the least-recently-used block. *)
    let victim = ref None in
    Tbl.Int.iter
      (fun b e ->
        match !victim with
        | Some (_, stamp) when stamp <= e.stamp -> ()
        | _ -> victim := Some (b, e.stamp))
      t.cache;
    match !victim with
    | None -> ()
    | Some (b, _) ->
        let e = Tbl.Int.find t.cache b in
        flush_entry t b e;
        Tbl.Int.remove t.cache b
  end

let touch t entry =
  t.tick <- t.tick + 1;
  entry.stamp <- t.tick

let lookup t b =
  if b < 0 || b >= blocks t then invalid_arg "Buffer_cache: block out of range";
  (* Hash lookup + LRU bookkeeping are kernel memory operations. *)
  Kmem.work t.kmem 25;
  match Tbl.Int.find_opt t.cache b with
  | Some entry ->
      t.hits <- t.hits + 1;
      touch t entry;
      entry
  | None ->
      t.misses <- t.misses + 1;
      evict_if_full t;
      let data = Disk.read_range t.disk ~sector:(b * sectors_per_block) ~count:sectors_per_block in
      let entry = { data; dirty = false; stamp = 0 } in
      touch t entry;
      Tbl.Int.replace t.cache b entry;
      entry

let read t b =
  guarded t (fun () ->
      let entry = lookup t b in
      Machine.charge ~tag:Obs.Tag.Copy (Kmem.machine t.kmem) (Cost.copy_cycles block_bytes);
      Bytes.copy entry.data)

(* A full-block write never needs the old contents: a cache miss here
   allocates a fresh buffer instead of reading the disk.  [fill] writes
   the block's new contents into the (zeroed) buffer. *)
let overwrite t b fill =
  guarded t @@ fun () ->
  if b < 0 || b >= blocks t then invalid_arg "Buffer_cache: block out of range";
  Kmem.work t.kmem 25;
  let entry =
    match Tbl.Int.find_opt t.cache b with
    | Some entry ->
        t.hits <- t.hits + 1;
        touch t entry;
        entry
    | None ->
        t.hits <- t.hits + 1;
        evict_if_full t;
        let entry = { data = Bytes.make block_bytes '\000'; dirty = true; stamp = 0 } in
        touch t entry;
        Tbl.Int.replace t.cache b entry;
        entry
  in
  Machine.charge ~tag:Obs.Tag.Copy (Kmem.machine t.kmem) (Cost.copy_cycles block_bytes);
  Bytes.fill entry.data 0 block_bytes '\000';
  fill entry.data;
  entry.dirty <- true

let write t b src =
  if Bytes.length src > block_bytes then invalid_arg "Buffer_cache.write: oversized block";
  overwrite t b (fun data -> Bytes.blit src 0 data 0 (Bytes.length src))

let zero t b = overwrite t b ignore

let modify t b f =
  guarded t (fun () ->
      let entry = lookup t b in
      f entry.data;
      entry.dirty <- true)

let view t b f =
  guarded t (fun () ->
      let entry = lookup t b in
      f entry.data)

let sync t = guarded t (fun () -> Tbl.Int.iter (fun b e -> flush_entry t b e) t.cache)
