let block_size = 16
let key_size = 16

(* GF(2^8) multiplication modulo the AES polynomial x^8+x^4+x^3+x+1. *)
let gf_mul a b =
  let rec loop a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 = 1 then acc lxor a else acc in
      let a = if a land 0x80 <> 0 then (a lsl 1) lxor 0x11b else a lsl 1 in
      loop a (b lsr 1) acc
  in
  loop a b 0

(* The S-box is the multiplicative inverse followed by the FIPS 197
   affine transform.  Inverses are found by exhausting the field once. *)
let sbox, inv_sbox =
  let inv = Array.make 256 0 in
  for a = 1 to 255 do
    for b = 1 to 255 do
      if gf_mul a b = 1 then inv.(a) <- b
    done
  done;
  let affine x =
    let rotl8 v n = ((v lsl n) lor (v lsr (8 - n))) land 0xff in
    x lxor rotl8 x 1 lxor rotl8 x 2 lxor rotl8 x 3 lxor rotl8 x 4 lxor 0x63
  in
  let s = Array.make 256 0 and si = Array.make 256 0 in
  for x = 0 to 255 do
    s.(x) <- affine inv.(x)
  done;
  for x = 0 to 255 do
    si.(s.(x)) <- x
  done;
  (s, si)

(* The state is four 32-bit column words held in native ints.  Byte
   [r] of column [c] (row r, FIPS 197 order) is bits [24 - 8r .. 31 - 8r]
   of word [c], so a 16-byte block loads as four big-endian words. *)

let word a b c d = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
let rotr8 w = ((w lsr 8) lor (w lsl 24)) land 0xffffffff

(* T-tables fuse SubBytes, ShiftRows and MixColumns: [t0.(x)] is the
   column contributed by S-box output [box.(x)] sitting in row 0, i.e.
   [box.(x)] times the first matrix column [m0..m3]; rows 1-3 are the
   same column rotated one byte per row. *)
let t_tables box (m0, m1, m2, m3) =
  let t0 =
    Array.init 256 (fun x ->
        let s = box.(x) in
        word (gf_mul m0 s) (gf_mul m1 s) (gf_mul m2 s) (gf_mul m3 s))
  in
  let t1 = Array.map rotr8 t0 in
  let t2 = Array.map rotr8 t1 in
  let t3 = Array.map rotr8 t2 in
  (t0, t1, t2, t3)

let te0, te1, te2, te3 = t_tables sbox (2, 1, 1, 3)
let td0, td1, td2, td3 = t_tables inv_sbox (14, 9, 13, 11)

(* Every table index below is one byte of a 32-bit word (state, key
   and table words never exceed 32 bits), so it is in 0..255 and the
   hot loops skip the bounds check. *)
let ( .%() ) = Array.unsafe_get

let sub_word w =
  word
    sbox.%(w lsr 24)
    sbox.%((w lsr 16) land 0xff)
    sbox.%((w lsr 8) land 0xff)
    sbox.%(w land 0xff)

let load b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff
let store b off w = Bytes.set_int32_be b off (Int32.of_int w)

type key = int array (* 44 words: 11 round keys of 4 columns *)

let expand k =
  if Bytes.length k <> key_size then invalid_arg "Aes128.expand: need 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- load k (4 * i)
  done;
  let rcon = ref 1 in
  for i = 4 to 43 do
    let prev = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then begin
        (* RotWord + SubWord + Rcon *)
        let t = sub_word (((prev lsl 8) lor (prev lsr 24)) land 0xffffffff) in
        let t = t lxor (!rcon lsl 24) in
        rcon := gf_mul !rcon 2;
        t
      end
      else prev
    in
    w.(i) <- w.(i - 4) lxor temp
  done;
  w

let encrypt_into key src soff dst doff =
  if soff < 0 || soff > Bytes.length src - block_size || doff < 0
     || doff > Bytes.length dst - block_size
  then invalid_arg "Aes128.encrypt_into: block out of bounds";
  let s0 = ref (load src soff lxor key.(0)) in
  let s1 = ref (load src (soff + 4) lxor key.(1)) in
  let s2 = ref (load src (soff + 8) lxor key.(2)) in
  let s3 = ref (load src (soff + 12) lxor key.(3)) in
  (* Column c of a round reads row r from column c + r (ShiftRows). *)
  let[@inline] col a b c d k =
    te0.%(a lsr 24)
    lxor te1.%((b lsr 16) land 0xff)
    lxor te2.%((c lsr 8) land 0xff)
    lxor te3.%(d land 0xff)
    lxor k
  in
  for round = 1 to 9 do
    let k = 4 * round in
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
    s0 := col a b c d key.(k);
    s1 := col b c d a key.(k + 1);
    s2 := col c d a b key.(k + 2);
    s3 := col d a b c key.(k + 3)
  done;
  let[@inline] last a b c d k =
    word
      sbox.%(a lsr 24)
      sbox.%((b lsr 16) land 0xff)
      sbox.%((c lsr 8) land 0xff)
      sbox.%(d land 0xff)
    lxor k
  in
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
  store dst doff (last a b c d key.(40));
  store dst (doff + 4) (last b c d a key.(41));
  store dst (doff + 8) (last c d a b key.(42));
  store dst (doff + 12) (last d a b c key.(43))

let encrypt_block key plain =
  if Bytes.length plain <> block_size then
    invalid_arg "Aes128.encrypt_block: need 16 bytes";
  let out = Bytes.create block_size in
  encrypt_into key plain 0 out 0;
  out

(* The equivalent inverse cipher (FIPS 197 section 5.3.5): the middle
   round keys pass through InvMixColumns, which is a [td] lookup of
   each byte after undoing the inverse S-box the [td] tables fold in. *)
let inv_mix w =
  td0.%(sbox.%(w lsr 24))
  lxor td1.%(sbox.%((w lsr 16) land 0xff))
  lxor td2.%(sbox.%((w lsr 8) land 0xff))
  lxor td3.%(sbox.%(w land 0xff))

let decrypt_block key cipher =
  if Bytes.length cipher <> block_size then
    invalid_arg "Aes128.decrypt_block: need 16 bytes";
  let s0 = ref (load cipher 0 lxor key.(40)) in
  let s1 = ref (load cipher 4 lxor key.(41)) in
  let s2 = ref (load cipher 8 lxor key.(42)) in
  let s3 = ref (load cipher 12 lxor key.(43)) in
  (* Column c reads row r from column c - r (InvShiftRows). *)
  let[@inline] col a b c d k =
    td0.%(a lsr 24)
    lxor td1.%((b lsr 16) land 0xff)
    lxor td2.%((c lsr 8) land 0xff)
    lxor td3.%(d land 0xff)
    lxor inv_mix k
  in
  for round = 9 downto 1 do
    let k = 4 * round in
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
    s0 := col a d c b key.(k);
    s1 := col b a d c key.(k + 1);
    s2 := col c b a d key.(k + 2);
    s3 := col d c b a key.(k + 3)
  done;
  let[@inline] last a b c d k =
    word
      inv_sbox.%(a lsr 24)
      inv_sbox.%((b lsr 16) land 0xff)
      inv_sbox.%((c lsr 8) land 0xff)
      inv_sbox.%(d land 0xff)
    lxor k
  in
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
  let out = Bytes.create block_size in
  store out 0 (last a d c b key.(0));
  store out 4 (last b a d c key.(1));
  store out 8 (last c b a d key.(2));
  store out 12 (last d c b a key.(3));
  out
