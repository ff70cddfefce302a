(** Monomorphic hash tables for the simulator's hot integer-keyed maps
    (frame, page and block tables, descriptor and thread tables).

    Keys compare with [Int.equal]/[Int64.equal] and hash by identity,
    so a lookup never reaches the polymorphic [compare] or [caml_hash]
    that the generic [Hashtbl] pays on every call.  Iteration order is
    bucket order under the identity hash: deterministic, but not the
    order a generic [Hashtbl] would give. *)

module Int : Hashtbl.S with type key = int
module Int64 : Hashtbl.S with type key = int64
