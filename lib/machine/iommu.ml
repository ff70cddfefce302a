type t = {
  mutable protected_ : int -> bool;
  (* Notified with the offending frame just before a DMA is blocked, so
     the machine can surface the denial as a security event. *)
  mutable observer : int -> unit;
}

exception Dma_blocked of int

let create () = { protected_ = (fun _ -> false); observer = (fun _ -> ()) }
let set_protected t p = t.protected_ <- p
let set_observer t f = t.observer <- f

let check_range t ~addr ~len =
  let first = Int64.to_int (Int64.shift_right_logical addr 12) in
  let last = Int64.to_int (Int64.shift_right_logical (Int64.add addr (Int64.of_int (max 0 (len - 1)))) 12) in
  for f = first to last do
    if t.protected_ f then begin
      t.observer f;
      raise (Dma_blocked f)
    end
  done

let dma_write t mem ~addr src =
  check_range t ~addr ~len:(Bytes.length src);
  Phys_mem.write_bytes mem ~addr src

let dma_read t mem ~addr ~len =
  check_range t ~addr ~len;
  Phys_mem.read_bytes mem ~addr ~len
