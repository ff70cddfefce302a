(* Little-endian limbs in base 2^26.  26-bit limbs keep every product of
   two limbs plus carries well inside OCaml's 63-bit native ints. *)

let limb_bits = 26
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = int array

let zero : t = [||]
let is_zero v = Array.length v = 0

let normalize (v : int array) : t =
  let n = ref (Array.length v) in
  while !n > 0 && v.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length v then v else Array.sub v 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs n acc = if n = 0 then List.rev acc else limbs (n lsr limb_bits) ((n land limb_mask) :: acc) in
  Array.of_list (limbs n [])

let one = of_int 1
let two = of_int 2

let to_int v =
  let bits = Array.length v * limb_bits in
  if bits > 62 && Array.length v > (62 / limb_bits) + 1 then None
  else begin
    let acc = ref 0 and ok = ref true in
    for i = Array.length v - 1 downto 0 do
      if !acc > max_int lsr limb_bits then ok := false
      else acc := (!acc lsl limb_bits) lor v.(i)
    done;
    if !ok && !acc >= 0 then Some !acc else None
  end

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0
let is_even v = is_zero v || v.(0) land 1 = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize out

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + limb_base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let s = out.(i + j) + (a.(i) * b.(j)) + !carry in
        out.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = out.(!k) + !carry in
        out.(!k) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr k
      done
    done;
    normalize out
  end

let bit_length v =
  if is_zero v then 0
  else begin
    let top = v.(Array.length v - 1) in
    let rec msb n acc = if n = 0 then acc else msb (n lsr 1) (acc + 1) in
    ((Array.length v - 1) * limb_bits) + msb top 0
  end

let test_bit v i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length v && (v.(limb) lsr off) land 1 = 1

let shift_left v n =
  if is_zero v || n = 0 then v
  else begin
    let limb_shift = n / limb_bits and bit_shift = n mod limb_bits in
    let la = Array.length v in
    let out = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let x = v.(i) lsl bit_shift in
      out.(i + limb_shift) <- out.(i + limb_shift) lor (x land limb_mask);
      out.(i + limb_shift + 1) <- x lsr limb_bits
    done;
    normalize out
  end

let shift_right v n =
  if is_zero v || n = 0 then v
  else begin
    let limb_shift = n / limb_bits and bit_shift = n mod limb_bits in
    let la = Array.length v in
    if limb_shift >= la then zero
    else begin
      let out = Array.make (la - limb_shift) 0 in
      for i = 0 to la - limb_shift - 1 do
        let lo = v.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift > 0 && i + limb_shift + 1 < la then
            (v.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
          else 0
        in
        out.(i) <- lo lor hi
      done;
      normalize out
    end
  end

(* Shift-and-subtract long division working on a mutable remainder.
   O(bits(a) * limbs(b)); entirely adequate for <= 1024-bit moduli. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let bits_a = bit_length a in
    let quotient = Array.make (Array.length a) 0 in
    (* Remainder buffer, one limb of headroom for the shift. *)
    let r = Array.make (Array.length b + 1) 0 in
    let r_len = ref 0 in
    let lb = Array.length b in
    let r_ge_b () =
      if !r_len <> lb then !r_len > lb
      else begin
        let rec go i = if i < 0 then true else if r.(i) <> b.(i) then r.(i) > b.(i) else go (i - 1) in
        go (lb - 1)
      end
    in
    let r_sub_b () =
      let borrow = ref 0 in
      for i = 0 to !r_len - 1 do
        let d = r.(i) - (if i < lb then b.(i) else 0) - !borrow in
        if d < 0 then begin
          r.(i) <- d + limb_base;
          borrow := 1
        end
        else begin
          r.(i) <- d;
          borrow := 0
        end
      done;
      while !r_len > 0 && r.(!r_len - 1) = 0 do
        decr r_len
      done
    in
    for bit = bits_a - 1 downto 0 do
      (* r := r << 1 | bit(a, bit) *)
      let carry = ref (if test_bit a bit then 1 else 0) in
      for i = 0 to !r_len - 1 do
        let x = (r.(i) lsl 1) lor !carry in
        r.(i) <- x land limb_mask;
        carry := x lsr limb_bits
      done;
      if !carry <> 0 then begin
        r.(!r_len) <- !carry;
        incr r_len
      end
      else if !r_len = 0 && test_bit a bit then begin
        (* carry consumed into limb 0 above only if r_len>0 *)
        r.(0) <- 1;
        r_len := 1
      end;
      if r_ge_b () then begin
        r_sub_b ();
        quotient.(bit / limb_bits) <- quotient.(bit / limb_bits) lor (1 lsl (bit mod limb_bits))
      end
    done;
    (normalize quotient, normalize (Array.sub r 0 !r_len))
  end

let rem a b = snd (divmod a b)

let mod_pow ~base ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else begin
    let result = ref one and b = ref (rem base modulus) in
    let nbits = bit_length exp in
    for i = 0 to nbits - 1 do
      if test_bit exp i then result := rem (mul !result !b) modulus;
      if i < nbits - 1 then b := rem (mul !b !b) modulus
    done;
    !result
  end

(* Extended Euclid over signed pairs (sign, magnitude). *)
let mod_inverse a ~modulus =
  let a = rem a modulus in
  if is_zero a then None
  else begin
    (* Invariants: r_i = s_i * a (mod modulus), tracking only s. *)
    let rec go old_r r old_s_sign old_s s_sign s =
      if is_zero r then
        if equal old_r one then
          Some (if old_s_sign then sub modulus (rem old_s modulus) else rem old_s modulus)
        else None
      else begin
        let q, rest = divmod old_r r in
        (* new_s = old_s - q * s, with explicit sign handling *)
        let qs = mul q s in
        let new_s_sign, new_s =
          if old_s_sign = s_sign then
            if compare old_s qs >= 0 then (old_s_sign, sub old_s qs)
            else (not old_s_sign, sub qs old_s)
          else (old_s_sign, add old_s qs)
        in
        go r rest s_sign s new_s_sign new_s
      end
    in
    go modulus a false zero false one
    |> Option.map (fun inv -> rem inv modulus)
    |> fun r ->
    (* go is seeded as (modulus, a) so the coefficient tracked is for a. *)
    (match r with
    | Some v when equal (rem (mul v a) modulus) one -> Some v
    | _ -> None)
  end

let of_bytes_be b =
  let acc = ref zero in
  for i = 0 to Bytes.length b - 1 do
    acc := add (shift_left !acc 8) (of_int (Char.code (Bytes.get b i)))
  done;
  !acc

let to_bytes_be ?len v =
  let nbytes = max 1 ((bit_length v + 7) / 8) in
  let nbytes =
    match len with
    | None -> nbytes
    | Some l ->
        if l < nbytes then invalid_arg "Bignum.to_bytes_be: value too large";
        l
  in
  let out = Bytes.make nbytes '\000' in
  let v = ref v in
  for i = nbytes - 1 downto 0 do
    (match to_int (rem !v (of_int 256)) with
    | Some byte -> Bytes.set out i (Char.chr byte)
    | None -> assert false);
    v := shift_right !v 8
  done;
  out

let random_bits rng bits =
  if bits <= 0 then zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let raw = Drbg.bytes rng nbytes in
    let excess = (8 * nbytes) - bits in
    if excess > 0 then
      Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) land (0xff lsr excess)));
    of_bytes_be raw
  end

let random_below rng bound =
  if is_zero bound then invalid_arg "Bignum.random_below: zero bound";
  let bits = bit_length bound in
  let rec draw () =
    let v = random_bits rng bits in
    if compare v bound < 0 then v else draw ()
  in
  draw ()

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139; 149;
    151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199 ]

let miller_rabin_rounds = 24

let is_probable_prime rng n =
  if compare n two < 0 then false
  else if equal n two then true
  else if is_even n then false
  else begin
    let divisible_by_small =
      List.exists
        (fun p ->
          let bp = of_int p in
          if compare n bp <= 0 then false else is_zero (rem n bp))
        small_primes
    in
    if List.exists (fun p -> equal n (of_int p)) small_primes then true
    else if divisible_by_small then false
    else begin
      (* n - 1 = d * 2^s with d odd *)
      let n_minus_1 = sub n one in
      let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
      let d, s = split n_minus_1 0 in
      let witness a =
        let x = ref (mod_pow ~base:a ~exp:d ~modulus:n) in
        if equal !x one || equal !x n_minus_1 then false
        else begin
          let composite = ref true in
          (try
             for _ = 1 to s - 1 do
               x := rem (mul !x !x) n;
               if equal !x n_minus_1 then begin
                 composite := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !composite
        end
      in
      let rec rounds i =
        if i = 0 then true
        else begin
          let a = add two (random_below rng (sub n (of_int 4))) in
          if witness a then false else rounds (i - 1)
        end
      in
      rounds miller_rabin_rounds
    end
  end

let generate_prime rng ~bits =
  if bits < 8 then invalid_arg "Bignum.generate_prime: need >= 8 bits";
  let rec attempt () =
    let candidate = random_bits rng bits in
    (* Force top bit (exact width) and bottom bit (odd). *)
    let candidate = add candidate (shift_left one (bits - 1)) in
    let candidate = if is_even candidate then add candidate one else candidate in
    let candidate =
      if bit_length candidate > bits then sub candidate (shift_left one bits) else candidate
    in
    if bit_length candidate = bits && is_probable_prime rng candidate then candidate
    else attempt ()
  in
  attempt ()
