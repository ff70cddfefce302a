(* Reference AES-128: the original bit-serial implementation, kept only
   as a differential oracle for the table-driven [Vg_crypto.Aes128].
   Every MixColumns byte is a bit-serial [gf_mul], and the state is a
   16-byte buffer, so it follows FIPS 197 step by step and shares no
   table with the code under test beyond the GF(2^8) definition. *)

open Vg_crypto

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

type key = { rounds : bytes array (* 11 round keys of 16 bytes *) }

let expand k =
  if Bytes.length k <> key_size then invalid_arg "Aes128.expand: need 16 bytes";
  (* Word-oriented key schedule: 44 four-byte words. *)
  let words = Array.make 44 (Bytes.create 4) in
  for i = 0 to 3 do
    words.(i) <- Bytes.sub k (4 * i) 4
  done;
  let rcon = ref 1 in
  for i = 4 to 43 do
    let prev = words.(i - 1) in
    let temp =
      if i mod 4 = 0 then begin
        (* RotWord + SubWord + Rcon *)
        let t = Bytes.create 4 in
        for j = 0 to 3 do
          Bytes.set t j
            (Char.chr sbox.(Char.code (Bytes.get prev ((j + 1) mod 4))))
        done;
        Bytes.set t 0 (Char.chr (Char.code (Bytes.get t 0) lxor !rcon));
        rcon := gf_mul !rcon 2;
        t
      end
      else Bytes.copy prev
    in
    Bytes_util.xor_into ~src:words.(i - 4) ~dst:temp;
    words.(i) <- temp
  done;
  let rounds =
    Array.init 11 (fun r ->
        let rk = Bytes.create 16 in
        for j = 0 to 3 do
          Bytes.blit words.((4 * r) + j) 0 rk (4 * j) 4
        done;
        rk)
  in
  { rounds }

let add_round_key state rk = Bytes_util.xor_into ~src:rk ~dst:state

let sub_bytes state table =
  for i = 0 to 15 do
    Bytes.set state i (Char.chr table.(Char.code (Bytes.get state i)))
  done

(* State layout: byte [r + 4*c] is row r, column c (column-major, as in
   FIPS 197).  A 16-byte input maps column-by-column. *)

let shift_rows state =
  let tmp = Bytes.copy state in
  for r = 1 to 3 do
    for c = 0 to 3 do
      Bytes.set state (r + (4 * c)) (Bytes.get tmp (r + (4 * ((c + r) mod 4))))
    done
  done

let inv_shift_rows state =
  let tmp = Bytes.copy state in
  for r = 1 to 3 do
    for c = 0 to 3 do
      Bytes.set state (r + (4 * ((c + r) mod 4))) (Bytes.get tmp (r + (4 * c)))
    done
  done

let mix_single state c m0 m1 m2 m3 =
  let b i = Char.code (Bytes.get state (i + (4 * c))) in
  let s0 = b 0 and s1 = b 1 and s2 = b 2 and s3 = b 3 in
  let mix m a b c d =
    gf_mul m.(0) a lxor gf_mul m.(1) b lxor gf_mul m.(2) c lxor gf_mul m.(3) d
  in
  Bytes.set state (0 + (4 * c)) (Char.chr (mix m0 s0 s1 s2 s3));
  Bytes.set state (1 + (4 * c)) (Char.chr (mix m1 s0 s1 s2 s3));
  Bytes.set state (2 + (4 * c)) (Char.chr (mix m2 s0 s1 s2 s3));
  Bytes.set state (3 + (4 * c)) (Char.chr (mix m3 s0 s1 s2 s3))

let mc0 = [| 2; 3; 1; 1 |]
let mc1 = [| 1; 2; 3; 1 |]
let mc2 = [| 1; 1; 2; 3 |]
let mc3 = [| 3; 1; 1; 2 |]
let imc0 = [| 14; 11; 13; 9 |]
let imc1 = [| 9; 14; 11; 13 |]
let imc2 = [| 13; 9; 14; 11 |]
let imc3 = [| 11; 13; 9; 14 |]

let mix_columns state =
  for c = 0 to 3 do
    mix_single state c mc0 mc1 mc2 mc3
  done

let inv_mix_columns state =
  for c = 0 to 3 do
    mix_single state c imc0 imc1 imc2 imc3
  done

let encrypt_block key plain =
  if Bytes.length plain <> block_size then
    invalid_arg "Aes128.encrypt_block: need 16 bytes";
  let state = Bytes.copy plain in
  add_round_key state key.rounds.(0);
  for round = 1 to 9 do
    sub_bytes state sbox;
    shift_rows state;
    mix_columns state;
    add_round_key state key.rounds.(round)
  done;
  sub_bytes state sbox;
  shift_rows state;
  add_round_key state key.rounds.(10);
  state

let decrypt_block key cipher =
  if Bytes.length cipher <> block_size then
    invalid_arg "Aes128.decrypt_block: need 16 bytes";
  let state = Bytes.copy cipher in
  add_round_key state key.rounds.(10);
  for round = 9 downto 1 do
    inv_shift_rows state;
    sub_bytes state inv_sbox;
    add_round_key state key.rounds.(round);
    inv_mix_columns state
  done;
  inv_shift_rows state;
  sub_bytes state inv_sbox;
  add_round_key state key.rounds.(0);
  state
