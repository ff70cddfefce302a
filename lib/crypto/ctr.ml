let tag_size = 32

(* XOR the keystream for [nonce] into [buf.[pos .. pos + len - 1]]. *)
let crypt_in_place key ~nonce buf ~pos ~len =
  if Bytes.length nonce <> 8 then invalid_arg "Ctr: nonce must be 8 bytes";
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Ctr: slice out of bounds";
  let counter_block = Bytes.make 16 '\000' in
  let keystream = Bytes.create 16 in
  Bytes.blit nonce 0 counter_block 0 8;
  let next_keystream blk =
    Bytes.set_int64_be counter_block 8 (Int64.of_int blk);
    Aes128.encrypt_into key counter_block 0 keystream 0
  in
  let full = len / 16 in
  for blk = 0 to full - 1 do
    next_keystream blk;
    let p = pos + (16 * blk) in
    Bytes.set_int64_ne buf p
      (Int64.logxor (Bytes.get_int64_ne buf p) (Bytes.get_int64_ne keystream 0));
    Bytes.set_int64_ne buf (p + 8)
      (Int64.logxor (Bytes.get_int64_ne buf (p + 8)) (Bytes.get_int64_ne keystream 8))
  done;
  let tail = 16 * full in
  if tail < len then begin
    next_keystream full;
    for i = 0 to len - tail - 1 do
      let p = pos + tail + i in
      Bytes.set buf p
        (Char.chr (Char.code (Bytes.get buf p) lxor Char.code (Bytes.get keystream i)))
    done
  end

let transform ~key ~nonce data =
  let out = Bytes.copy data in
  crypt_in_place key ~nonce out ~pos:0 ~len:(Bytes.length out);
  out

(* Independent cipher and MAC keys derived from one 16-byte master key,
   so a forged tag never leaks keystream material. *)
type key = { cipher : Aes128.key; mac : Hmac.key }

let derive key =
  {
    cipher = Aes128.expand key;
    mac = Hmac.derive (Sha256.digest (Bytes.cat (Bytes.of_string "vg-mac") key));
  }

(* HMAC over [nonce || buf.[pos .. pos + len - 1]], streamed. *)
let tag k ~nonce buf ~pos ~len =
  let ctx = Hmac.start k.mac in
  Sha256.update ctx nonce;
  Sha256.update_sub ctx buf ~pos ~len;
  Hmac.finish k.mac ctx

let seal_in_place k ~nonce buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len - tag_size then
    invalid_arg "Ctr.seal_in_place: slice out of bounds";
  crypt_in_place k.cipher ~nonce buf ~pos ~len;
  Bytes.blit (tag k ~nonce buf ~pos ~len) 0 buf (pos + len) tag_size

let open_in_place k ~nonce buf ~pos ~len =
  let n = len - tag_size in
  if pos < 0 || n < 0 || pos > Bytes.length buf - len then false
  else if
    Constant_time.equal (tag k ~nonce buf ~pos ~len:n) (Bytes.sub buf (pos + n) tag_size)
  then begin
    crypt_in_place k.cipher ~nonce buf ~pos ~len:n;
    true
  end
  else false

let seal ~key ~nonce plain =
  let buf = Bytes.extend plain 0 tag_size in
  seal_in_place (derive key) ~nonce buf ~pos:0 ~len:(Bytes.length plain);
  buf

let open_ ~key ~nonce sealed =
  let buf = Bytes.copy sealed in
  if open_in_place (derive key) ~nonce buf ~pos:0 ~len:(Bytes.length buf) then
    Some (Bytes.sub buf 0 (Bytes.length buf - tag_size))
  else None
