let block_size = 64

let normalize_key key =
  let key = if Bytes.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\000' in
  Bytes.blit key 0 padded 0 (Bytes.length key);
  padded

(* A key is kept as the two hash states every tag starts from: the
   inner hash after [key xor ipad] and the outer hash after
   [key xor opad].  A tag resumes copies of them, so the key blocks are
   hashed once per key, not once per message. *)
type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let derive key =
  let key = normalize_key key in
  let after pad =
    let block = Bytes.make block_size pad in
    Bytes_util.xor_into ~src:key ~dst:block;
    let ctx = Sha256.init () in
    Sha256.update ctx block;
    ctx
  in
  { inner = after '\x36'; outer = after '\x5c' }

let start k = Sha256.copy k.inner

let finish k inner =
  let outer = Sha256.copy k.outer in
  Sha256.update outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac ~key msg =
  let k = derive key in
  let ctx = start k in
  Sha256.update ctx msg;
  finish k ctx

let verify ~key ~tag msg = Constant_time.equal tag (mac ~key msg)
