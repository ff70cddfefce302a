(* Reference SHA-256: the original int32 implementation, kept only as a
   differential oracle for the raw-word [Vg_crypto.Sha256].  Every
   schedule and state word is a boxed [int32] and the rounds follow
   FIPS 180-4 one at a time, so it shares no code with the hash under
   test beyond [Bytes_util]'s big-endian accessors. *)

open Vg_crypto

let k =
  [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
     0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
     0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
     0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
     0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
     0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
     0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
     0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
     0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
     0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
     0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
     0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
     0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

type ctx = {
  h : int32 array; (* 8 chaining words *)
  buf : bytes; (* 64-byte block buffer *)
  mutable buf_len : int; (* bytes pending in [buf] *)
  mutable total : int64; (* total message bytes absorbed *)
  w : int32 array; (* scratch message schedule *)
}

let init () =
  {
    h =
      [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
         0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0L;
    w = Array.make 64 0l;
  }

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

let compress ctx block pos =
  let w = ctx.w in
  for t = 0 to 15 do
    w.(t) <- Bytes_util.get_u32_be block (pos + (4 * t))
  done;
  for t = 16 to 63 do
    let s0 =
      Int32.logxor
        (Int32.logxor (rotr w.(t - 15) 7) (rotr w.(t - 15) 18))
        (Int32.shift_right_logical w.(t - 15) 3)
    and s1 =
      Int32.logxor
        (Int32.logxor (rotr w.(t - 2) 17) (rotr w.(t - 2) 19))
        (Int32.shift_right_logical w.(t - 2) 10)
    in
    w.(t) <- Int32.add (Int32.add (Int32.add s1 w.(t - 7)) s0) w.(t - 16)
  done;
  let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2)
  and d = ref ctx.h.(3) and e = ref ctx.h.(4) and f = ref ctx.h.(5)
  and g = ref ctx.h.(6) and hh = ref ctx.h.(7) in
  for t = 0 to 63 do
    let s1 = Int32.logxor (Int32.logxor (rotr !e 6) (rotr !e 11)) (rotr !e 25) in
    let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
    let t1 = Int32.add (Int32.add (Int32.add (Int32.add !hh s1) ch) k.(t)) w.(t) in
    let s0 = Int32.logxor (Int32.logxor (rotr !a 2) (rotr !a 13)) (rotr !a 22) in
    let maj =
      Int32.logxor
        (Int32.logxor (Int32.logand !a !b) (Int32.logand !a !c))
        (Int32.logand !b !c)
    in
    let t2 = Int32.add s0 maj in
    hh := !g;
    g := !f;
    f := !e;
    e := Int32.add !d t1;
    d := !c;
    c := !b;
    b := !a;
    a := Int32.add t1 t2
  done;
  ctx.h.(0) <- Int32.add ctx.h.(0) !a;
  ctx.h.(1) <- Int32.add ctx.h.(1) !b;
  ctx.h.(2) <- Int32.add ctx.h.(2) !c;
  ctx.h.(3) <- Int32.add ctx.h.(3) !d;
  ctx.h.(4) <- Int32.add ctx.h.(4) !e;
  ctx.h.(5) <- Int32.add ctx.h.(5) !f;
  ctx.h.(6) <- Int32.add ctx.h.(6) !g;
  ctx.h.(7) <- Int32.add ctx.h.(7) !hh

let update_sub ctx src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Sha256.update_sub";
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
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
  let bit_len = Int64.mul ctx.total 8L in
  let pad_len =
    let rem = Int64.to_int (Int64.rem ctx.total 64L) in
    if rem < 56 then 56 - rem else 120 - rem
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  Bytes_util.set_u64_be pad pad_len bit_len;
  update ctx pad;
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes_util.set_u32_be out (4 * i) ctx.h.(i)
  done;
  out

let digest msg =
  let ctx = init () in
  update ctx msg;
  finalize ctx

let digest_string s = digest (Bytes.of_string s)
