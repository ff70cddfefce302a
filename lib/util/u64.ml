let compare = Int64.unsigned_compare
let lt a b = compare a b < 0
let ge a b = compare a b >= 0
let gt a b = compare a b > 0
let in_range a ~lo ~hi = ge a lo && lt a hi
let div = Int64.unsigned_div
let to_hex a = Printf.sprintf "0x%016Lx" a
