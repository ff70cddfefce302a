type perm = { writable : bool; user : bool; executable : bool }
type pte = { frame : int; perm : perm }

type t = {
  entries : (int64, pte) Hashtbl.t;
  (* frame -> number of vpages mapping it, plus one exemplar list kept
     lazily: we just scan entries for correctness; a count avoids the
     scan in the common no-mapping case. *)
  frame_refs : (int, int) Hashtbl.t;
}

let create () = { entries = Hashtbl.create 256; frame_refs = Hashtbl.create 256 }

let incr_ref t frame =
  Hashtbl.replace t.frame_refs frame
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.frame_refs frame))

let decr_ref t frame =
  match Hashtbl.find_opt t.frame_refs frame with
  | None -> ()
  | Some 1 -> Hashtbl.remove t.frame_refs frame
  | Some n -> Hashtbl.replace t.frame_refs frame (n - 1)

let map t ~vpage pte =
  (match Hashtbl.find_opt t.entries vpage with
  | Some old -> decr_ref t old.frame
  | None -> ());
  Hashtbl.replace t.entries vpage pte;
  incr_ref t pte.frame

let unmap t ~vpage =
  match Hashtbl.find_opt t.entries vpage with
  | None -> ()
  | Some old ->
      decr_ref t old.frame;
      Hashtbl.remove t.entries vpage

let lookup t ~vpage = Hashtbl.find_opt t.entries vpage
let iter t f = Hashtbl.iter f t.entries

let vpages_of_frame t frame =
  match Hashtbl.find_opt t.frame_refs frame with
  | None -> []
  | Some _ ->
      Hashtbl.fold
        (fun vpage pte acc -> if pte.frame = frame then vpage :: acc else acc)
        t.entries []

let copy t =
  { entries = Hashtbl.copy t.entries; frame_refs = Hashtbl.copy t.frame_refs }
