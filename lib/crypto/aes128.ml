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

(* The state is four 32-bit column words.  Byte [r] of column [c] (row
   r, FIPS 197 order) is bits [24 - 8r .. 31 - 8r] of word [c], so a
   16-byte block loads as four big-endian words.  The round tables and
   the key schedule keep one word per 8-byte slot of a [bytes] buffer,
   read with the unchecked native-endian accessor, so the rounds run on
   unboxed [int64] locals and allocate nothing. *)

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external ( ^: ) : int64 -> int64 -> int64 = "%int64_xor"
external ( &: ) : int64 -> int64 -> int64 = "%int64_and"
external ( <<: ) : int64 -> int -> int64 = "%int64_lsl"
external ( >>: ) : int64 -> int -> int64 = "%int64_lsr"

let word a b c d = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
let rotr8 w = ((w lsr 8) lor (w lsl 24)) land 0xffffffff

let words ws =
  let b = Bytes.create (8 * Array.length ws) in
  Array.iteri (fun i w -> set64u b (8 * i) (Int64.of_int w)) ws;
  b

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
  (words t0, words t1, words t2, words t3)

let te0, te1, te2, te3 = t_tables sbox (2, 1, 1, 3)
let td0, td1, td2, td3 = t_tables inv_sbox (14, 9, 13, 11)
let inv_sbox_words = words inv_sbox

(* Table slot of byte [r] (row r) of a 32-bit word.  Every state, key
   and table word stays below 2^32, so the slot is in 0..255 and the
   unchecked read stays inside the 2 KB table. *)
let[@inline] row0 t w = get64u t (Int64.to_int ((w >>: 21) &: 0x7f8L))
let[@inline] row1 t w = get64u t (Int64.to_int ((w >>: 13) &: 0x7f8L))
let[@inline] row2 t w = get64u t (Int64.to_int ((w >>: 5) &: 0x7f8L))
let[@inline] row3 t w = get64u t (Int64.to_int ((w <<: 3) &: 0x7f8L))

let sub_word w =
  word
    sbox.(w lsr 24)
    sbox.((w lsr 16) land 0xff)
    sbox.((w lsr 8) land 0xff)
    sbox.(w land 0xff)

let load b off = Int64.of_int32 (Bytes.get_int32_be b off) &: 0xffffffffL
let store b off w = Bytes.set_int32_be b off (Int64.to_int32 w)

type key = bytes (* 44 words: 11 round keys of 4 columns *)

let[@inline] rk key i = get64u key (8 * i)

let expand k =
  if Bytes.length k <> key_size then invalid_arg "Aes128.expand: need 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- Int64.to_int (load k (4 * i))
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
  words w

let encrypt_into key src soff dst doff =
  if soff < 0 || soff > Bytes.length src - block_size || doff < 0
     || doff > Bytes.length dst - block_size
  then invalid_arg "Aes128.encrypt_into: block out of bounds";
  let s0 = ref (load src soff ^: rk key 0) in
  let s1 = ref (load src (soff + 4) ^: rk key 1) in
  let s2 = ref (load src (soff + 8) ^: rk key 2) in
  let s3 = ref (load src (soff + 12) ^: rk key 3) in
  (* Column c of a round reads row r from column c + r (ShiftRows). *)
  let[@inline] col a b c d k =
    row0 te0 a ^: row1 te1 b ^: row2 te2 c ^: row3 te3 d ^: k
  in
  for round = 1 to 9 do
    let k = 4 * round in
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
    s0 := col a b c d (rk key k);
    s1 := col b c d a (rk key (k + 1));
    s2 := col c d a b (rk key (k + 2));
    s3 := col d a b c (rk key (k + 3))
  done;
  (* The last round has no MixColumns: row r of a T-table word whose
     multiplier is 1 is the bare S-box byte, in the row it belongs to. *)
  let[@inline] last a b c d k =
    (row0 te2 a &: 0xff000000L)
    ^: (row1 te3 b &: 0xff0000L)
    ^: (row2 te0 c &: 0xff00L)
    ^: (row3 te1 d &: 0xffL)
    ^: k
  in
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
  store dst doff (last a b c d (rk key 40));
  store dst (doff + 4) (last b c d a (rk key 41));
  store dst (doff + 8) (last c d a b (rk key 42));
  store dst (doff + 12) (last d a b c (rk key 43))

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
  let w = Int64.to_int w in
  let[@inline] td t x = get64u t (8 * sbox.(x)) in
  td td0 (w lsr 24)
  ^: td td1 ((w lsr 16) land 0xff)
  ^: td td2 ((w lsr 8) land 0xff)
  ^: td td3 (w land 0xff)

let decrypt_block key cipher =
  if Bytes.length cipher <> block_size then
    invalid_arg "Aes128.decrypt_block: need 16 bytes";
  let s0 = ref (load cipher 0 ^: rk key 40) in
  let s1 = ref (load cipher 4 ^: rk key 41) in
  let s2 = ref (load cipher 8 ^: rk key 42) in
  let s3 = ref (load cipher 12 ^: rk key 43) in
  (* Column c reads row r from column c - r (InvShiftRows). *)
  let[@inline] col a b c d k =
    row0 td0 a ^: row1 td1 b ^: row2 td2 c ^: row3 td3 d ^: inv_mix k
  in
  for round = 9 downto 1 do
    let k = 4 * round in
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
    s0 := col a d c b (rk key k);
    s1 := col b a d c (rk key (k + 1));
    s2 := col c b a d (rk key (k + 2));
    s3 := col d c b a (rk key (k + 3))
  done;
  let[@inline] last a b c d k =
    (row0 inv_sbox_words a <<: 24)
    ^: (row1 inv_sbox_words b <<: 16)
    ^: (row2 inv_sbox_words c <<: 8)
    ^: row3 inv_sbox_words d
    ^: k
  in
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
  let out = Bytes.create block_size in
  store out 0 (last a d c b (rk key 0));
  store out 4 (last b a d c (rk key 1));
  store out 8 (last c b a d (rk key 2));
  store out 12 (last d c b a (rk key 3));
  out
