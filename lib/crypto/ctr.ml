let tag_size = 32

let transform ~key ~nonce data =
  if Bytes.length nonce <> 8 then invalid_arg "Ctr.transform: nonce must be 8 bytes";
  let n = Bytes.length data in
  let out = Bytes.create n in
  let counter_block = Bytes.make 16 '\000' in
  let keystream = Bytes.create 16 in
  Bytes.blit nonce 0 counter_block 0 8;
  let next_keystream blk =
    Bytes.set_int64_be counter_block 8 (Int64.of_int blk);
    Aes128.encrypt_into key counter_block 0 keystream 0
  in
  let full = n / 16 in
  for blk = 0 to full - 1 do
    next_keystream blk;
    let pos = 16 * blk in
    Bytes.set_int64_ne out pos
      (Int64.logxor (Bytes.get_int64_ne data pos) (Bytes.get_int64_ne keystream 0));
    Bytes.set_int64_ne out (pos + 8)
      (Int64.logxor (Bytes.get_int64_ne data (pos + 8)) (Bytes.get_int64_ne keystream 8))
  done;
  let pos = 16 * full in
  if pos < n then begin
    next_keystream full;
    for i = 0 to n - pos - 1 do
      Bytes.set out (pos + i)
        (Char.chr
           (Char.code (Bytes.get data (pos + i)) lxor Char.code (Bytes.get keystream i)))
    done
  end;
  out

(* Derive independent cipher and MAC keys from one 16-byte master key,
   so a forged tag never leaks keystream material. *)
let derive key =
  let cipher_key = Aes128.expand key in
  let mac_key = Sha256.digest (Bytes.cat (Bytes.of_string "vg-mac") key) in
  (cipher_key, mac_key)

let seal ~key ~nonce plain =
  let cipher_key, mac_key = derive key in
  let ciphertext = transform ~key:cipher_key ~nonce plain in
  let tag = Hmac.mac ~key:mac_key (Bytes.cat nonce ciphertext) in
  Bytes.cat ciphertext tag

let open_ ~key ~nonce sealed =
  let n = Bytes.length sealed in
  if n < tag_size then None
  else begin
    let cipher_key, mac_key = derive key in
    let ciphertext = Bytes.sub sealed 0 (n - tag_size) in
    let tag = Bytes.sub sealed (n - tag_size) tag_size in
    if Hmac.verify ~key:mac_key ~tag (Bytes.cat nonce ciphertext) then
      Some (transform ~key:cipher_key ~nonce ciphertext)
    else None
  end
