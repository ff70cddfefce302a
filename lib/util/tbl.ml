(* Identity hashes: keys here are frame numbers, page numbers, block
   numbers, descriptors and thread ids — small or consecutive integers
   that already spread over the buckets. *)

module Int = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i land max_int
end)

module Int64 = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash v = Int64.to_int v land max_int
end)
