type t = {
  mutable pc : int64;
  mutable sp : int64;
  mutable privilege : Machine.privilege;
  gprs : int64 array;
}

let gpr_count = 16

let create ~pc ~sp ~privilege = { pc; sp; privilege; gprs = Array.make gpr_count 0L }

let clone t = { t with gprs = Array.copy t.gprs }

let byte_size = 8 * (3 + gpr_count)

let to_bytes t =
  let b = Bytes.create byte_size in
  Bytes.set_int64_le b 0 t.pc;
  Bytes.set_int64_le b 8 t.sp;
  Bytes.set_int64_le b 16 (match t.privilege with Machine.User -> 3L | Machine.Kernel -> 0L);
  Array.iteri (fun i v -> Bytes.set_int64_le b (24 + (8 * i)) v) t.gprs;
  b

let of_bytes b =
  if Bytes.length b < byte_size then invalid_arg "Icontext.of_bytes: short buffer";
  let t =
    create ~pc:(Bytes.get_int64_le b 0) ~sp:(Bytes.get_int64_le b 8)
      ~privilege:(if Bytes.get_int64_le b 16 = 3L then Machine.User else Machine.Kernel)
  in
  for i = 0 to gpr_count - 1 do
    t.gprs.(i) <- Bytes.get_int64_le b (24 + (8 * i))
  done;
  t
