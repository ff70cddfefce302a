let frame_bytes = 4096

(* Frame numbers are small dense ints: hash them as themselves so a
   lookup never reaches the polymorphic [compare]/[caml_hash]. *)
module Frames = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i land max_int
end)

type t = { nframes : int; frames : bytes Frames.t }

exception Bad_physical_address of int64

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: need at least one frame";
  { nframes = frames; frames = Frames.create 1024 }

let frames t = t.nframes

let frame_of t i =
  match Frames.find_opt t.frames i with
  | Some b -> b
  | None ->
      let b = Bytes.make frame_bytes '\000' in
      Frames.replace t.frames i b;
      b

let locate t addr len =
  let frame = Int64.to_int (Int64.shift_right_logical addr 12) in
  let off = Int64.to_int (Int64.logand addr 0xfffL) in
  if
    Int64.compare addr 0L < 0
    || frame >= t.nframes
    || off + len > frame_bytes
  then raise (Bad_physical_address addr);
  (frame, off)

let read t ~addr ~len =
  let frame, off = locate t addr len in
  let b = frame_of t frame in
  match len with
  | 1 -> Int64.of_int (Char.code (Bytes.get b off))
  | 2 -> Int64.of_int (Bytes.get_uint16_le b off)
  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le b off)) 0xffffffffL
  | 8 -> Bytes.get_int64_le b off
  | _ -> invalid_arg "Phys_mem.read: len must be 1, 2, 4 or 8"

let write t ~addr ~len v =
  let frame, off = locate t addr len in
  let b = frame_of t frame in
  match len with
  | 1 -> Bytes.set b off (Char.chr (Int64.to_int (Int64.logand v 0xffL)))
  | 2 -> Bytes.set_uint16_le b off (Int64.to_int (Int64.logand v 0xffffL))
  | 4 -> Bytes.set_int32_le b off (Int64.to_int32 v)
  | 8 -> Bytes.set_int64_le b off v
  | _ -> invalid_arg "Phys_mem.write: len must be 1, 2, 4 or 8"

(* Bulk transfers between physical memory and a caller's buffer,
   split at frame boundaries. *)
let blit_to t ~addr dst ~off ~len =
  let pos = ref 0 in
  let addr = ref addr in
  while !pos < len do
    let chunk = min (len - !pos) (frame_bytes - Int64.to_int (Int64.logand !addr 0xfffL)) in
    let frame, foff = locate t !addr chunk in
    Bytes.blit (frame_of t frame) foff dst (off + !pos) chunk;
    pos := !pos + chunk;
    addr := Int64.add !addr (Int64.of_int chunk)
  done

let blit_from t ~addr src ~off ~len =
  let pos = ref 0 in
  let addr = ref addr in
  while !pos < len do
    let chunk = min (len - !pos) (frame_bytes - Int64.to_int (Int64.logand !addr 0xfffL)) in
    let frame, foff = locate t !addr chunk in
    Bytes.blit src (off + !pos) (frame_of t frame) foff chunk;
    pos := !pos + chunk;
    addr := Int64.add !addr (Int64.of_int chunk)
  done

let read_bytes t ~addr ~len =
  let out = Bytes.create len in
  blit_to t ~addr out ~off:0 ~len;
  out

let write_bytes t ~addr src = blit_from t ~addr src ~off:0 ~len:(Bytes.length src)

let zero_frame t i =
  if i < 0 || i >= t.nframes then
    raise (Bad_physical_address (Int64.of_int (i * frame_bytes)));
  Frames.remove t.frames i

let frame_is_allocated t i = Frames.mem t.frames i
