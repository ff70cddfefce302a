(* FIPS 180-4 SHA-256 on raw 64-bit words.  Every 32-bit word of the
   chaining state, the message schedule and the round constants sits in
   the low half of an 8-byte slot of a [bytes] buffer, read and written
   with the unchecked native-endian accessors, and the compression loop
   keeps them in unboxed [int64] locals: hashing allocates nothing per
   block.  Sums may carry above bit 31; only the low 32 bits matter, so
   a word is masked once when it is stored, and each 32-bit rotation is
   one shift of the doubled word [x lor (x lsl 32)]. *)

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external ( +: ) : int64 -> int64 -> int64 = "%int64_add"
external ( ^: ) : int64 -> int64 -> int64 = "%int64_xor"
external ( &: ) : int64 -> int64 -> int64 = "%int64_and"
external ( |: ) : int64 -> int64 -> int64 = "%int64_or"
external ( <<: ) : int64 -> int -> int64 = "%int64_lsl"
external ( >>: ) : int64 -> int -> int64 = "%int64_lsr"

let mask = 0xffffffffL

let words ws =
  let b = Bytes.create (8 * Array.length ws) in
  Array.iteri (fun i w -> set64u b (8 * i) (Int64.of_int w)) ws;
  b

let k =
  words
    [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
       0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
       0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
       0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
       0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
       0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
       0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
       0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
       0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
       0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
       0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let iv =
  words
    [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
       0x1f83d9ab; 0x5be0cd19 |]

type ctx = {
  h : bytes; (* 8 chaining words *)
  w : bytes; (* scratch message schedule, 64 words *)
  buf : bytes; (* 64-byte block buffer *)
  mutable buf_len : int; (* bytes pending in [buf] *)
  mutable total : int; (* total message bytes absorbed *)
}

let init () =
  {
    h = Bytes.copy iv;
    w = Bytes.create 512;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
  }

let copy ctx =
  {
    h = Bytes.copy ctx.h;
    w = Bytes.create 512;
    buf = Bytes.copy ctx.buf;
    buf_len = ctx.buf_len;
    total = ctx.total;
  }

(* The message is big-endian. *)
let[@inline] get_be64 b i = if Sys.big_endian then get64u b i else bswap64 (get64u b i)

(* The rotation amounts below are FIPS 180-4's; each [x] doubles a
   32-bit word so that [x >>: n] holds [rotr n] in its low half. *)
let[@inline] big_s0 a =
  let x = a |: (a <<: 32) in
  (x >>: 2) ^: (x >>: 13) ^: (x >>: 22)

let[@inline] big_s1 e =
  let x = e |: (e <<: 32) in
  (x >>: 6) ^: (x >>: 11) ^: (x >>: 25)

let[@inline] small_s0 w =
  let x = w |: (w <<: 32) in
  (x >>: 7) ^: (x >>: 18) ^: (w >>: 3)

let[@inline] small_s1 w =
  let x = w |: (w <<: 32) in
  (x >>: 17) ^: (x >>: 19) ^: (w >>: 10)

let[@inline] ch e f g = g ^: (e &: (f ^: g))
let[@inline] maj a b c = (a &: b) |: (c &: (a |: b))

(* [block.[pos]] must hold 64 readable bytes; callers check. *)
let compress ctx block pos =
  let w = ctx.w and h = ctx.h in
  for j = 0 to 7 do
    let x = get_be64 block (pos + (8 * j)) in
    set64u w (16 * j) (x >>: 32);
    set64u w ((16 * j) + 8) (x &: mask)
  done;
  for t = 16 to 63 do
    let o = 8 * t in
    set64u w o
      ((small_s1 (get64u w (o - 16))
       +: get64u w (o - 56)
       +: small_s0 (get64u w (o - 120))
       +: get64u w (o - 128))
      &: mask)
  done;
  let a = ref (get64u h 0) and b = ref (get64u h 8) and c = ref (get64u h 16)
  and d = ref (get64u h 24) and e = ref (get64u h 32) and f = ref (get64u h 40)
  and g = ref (get64u h 48) and hh = ref (get64u h 56) in
  (* Eight rounds per step: round [i] of a step plays the usual
     (a, b, c, d, e, f, g, h) roles with the names rotated right by [i],
     so each round writes only its [d] and [h] and no word moves. *)
  for step = 0 to 7 do
    let o = 64 * step in
    let t1 = !hh +: big_s1 !e +: ch !e !f !g +: get64u k o +: get64u w o in
    d := (!d +: t1) &: mask;
    hh := (t1 +: big_s0 !a +: maj !a !b !c) &: mask;
    let o = o + 8 in
    let t1 = !g +: big_s1 !d +: ch !d !e !f +: get64u k o +: get64u w o in
    c := (!c +: t1) &: mask;
    g := (t1 +: big_s0 !hh +: maj !hh !a !b) &: mask;
    let o = o + 8 in
    let t1 = !f +: big_s1 !c +: ch !c !d !e +: get64u k o +: get64u w o in
    b := (!b +: t1) &: mask;
    f := (t1 +: big_s0 !g +: maj !g !hh !a) &: mask;
    let o = o + 8 in
    let t1 = !e +: big_s1 !b +: ch !b !c !d +: get64u k o +: get64u w o in
    a := (!a +: t1) &: mask;
    e := (t1 +: big_s0 !f +: maj !f !g !hh) &: mask;
    let o = o + 8 in
    let t1 = !d +: big_s1 !a +: ch !a !b !c +: get64u k o +: get64u w o in
    hh := (!hh +: t1) &: mask;
    d := (t1 +: big_s0 !e +: maj !e !f !g) &: mask;
    let o = o + 8 in
    let t1 = !c +: big_s1 !hh +: ch !hh !a !b +: get64u k o +: get64u w o in
    g := (!g +: t1) &: mask;
    c := (t1 +: big_s0 !d +: maj !d !e !f) &: mask;
    let o = o + 8 in
    let t1 = !b +: big_s1 !g +: ch !g !hh !a +: get64u k o +: get64u w o in
    f := (!f +: t1) &: mask;
    b := (t1 +: big_s0 !c +: maj !c !d !e) &: mask;
    let o = o + 8 in
    let t1 = !a +: big_s1 !f +: ch !f !g !hh +: get64u k o +: get64u w o in
    e := (!e +: t1) &: mask;
    a := (t1 +: big_s0 !b +: maj !b !c !d) &: mask
  done;
  set64u h 0 ((get64u h 0 +: !a) &: mask);
  set64u h 8 ((get64u h 8 +: !b) &: mask);
  set64u h 16 ((get64u h 16 +: !c) &: mask);
  set64u h 24 ((get64u h 24 +: !d) &: mask);
  set64u h 32 ((get64u h 32 +: !e) &: mask);
  set64u h 40 ((get64u h 40 +: !f) &: mask);
  set64u h 48 ((get64u h 48 +: !g) &: mask);
  set64u h 56 ((get64u h 56 +: !hh) &: mask)

let update_sub ctx src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Sha256.update_sub";
  ctx.total <- ctx.total + len;
  let pos = ref pos and remaining = ref len in
  (* Fill a partially full block buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit src !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx src !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx src = update_sub ctx src ~pos:0 ~len:(Bytes.length src)

let finalize ctx =
  let rem = ctx.total mod 64 in
  let pad_len = if rem < 56 then 56 - rem else 120 - rem in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  Bytes.set_int64_be pad pad_len (Int64.mul (Int64.of_int ctx.total) 8L);
  update ctx pad;
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int64.to_int32 (get64u ctx.h (8 * i)))
  done;
  out

let digest msg =
  let ctx = init () in
  update ctx msg;
  finalize ctx

let digest_string s = digest (Bytes.of_string s)
