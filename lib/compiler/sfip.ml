(* Syscall-flow-integrity graphs: a per-application transition relation
   over syscall numbers, extracted statically from linked images and
   shipped inside the signed trans-cache blob (format v5).

   The compiler layer cannot see [Syscall_abi] (it lives above us in
   [lib/kernel]), so every operation that needs to map an extern name to
   a syscall number takes an injected [resolve : string -> int option].
   The kernel binds the real resolver once at boot
   ([Trans_cache.set_syscall_resolver]). *)

type graph = {
  n : int;  (** number of syscall slots; transitions are [0..n-1] *)
  entry : Bytes.t;  (** bitset of syscalls allowed first, (n+7)/8 bytes *)
  matrix : Bytes.t;
      (** row-major bitmatrix: bit [from*n + to] set = transition allowed *)
}

let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  let byte = i lsr 3 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl (i land 7))))

let bits n = (n + 7) / 8

let create ~n =
  if n <= 0 || n > 4096 then invalid_arg "Sfip.create: bad size";
  { n; entry = Bytes.make (bits n) '\000'; matrix = Bytes.make (bits (n * n)) '\000' }

let in_range g s = s >= 0 && s < g.n

let allow_entry g s =
  if not (in_range g s) then invalid_arg "Sfip.allow_entry";
  bit_set g.entry s

let allow g ~from ~to_ =
  if not (in_range g from && in_range g to_) then invalid_arg "Sfip.allow";
  bit_set g.matrix ((from * g.n) + to_)

let entry_allowed g s = in_range g s && bit_get g.entry s
let allowed g ~from ~to_ = in_range g from && in_range g to_ && bit_get g.matrix ((from * g.n) + to_)

let equal a b =
  a.n = b.n && Bytes.equal a.entry b.entry && Bytes.equal a.matrix b.matrix

let entry_count g =
  let c = ref 0 in
  for s = 0 to g.n - 1 do
    if bit_get g.entry s then incr c
  done;
  !c

let transition_count g =
  let c = ref 0 in
  for i = 0 to (g.n * g.n) - 1 do
    if bit_get g.matrix i then incr c
  done;
  !c

let iter_entries g f =
  for s = 0 to g.n - 1 do
    if bit_get g.entry s then f s
  done

let iter_transitions g f =
  for from = 0 to g.n - 1 do
    for to_ = 0 to g.n - 1 do
      if bit_get g.matrix ((from * g.n) + to_) then f ~from ~to_
    done
  done

(* Wire format: 'S', version byte, n as 2-byte LE, entry bitset, matrix
   bitmatrix.  Strict length check on decode: a truncated or padded
   profile is refused, not partially applied. *)
let wire_version = 1

let to_bytes g =
  let eb = bits g.n and mb = bits (g.n * g.n) in
  let out = Bytes.create (4 + eb + mb) in
  Bytes.set out 0 'S';
  Bytes.set out 1 (Char.chr wire_version);
  Bytes.set out 2 (Char.chr (g.n land 0xff));
  Bytes.set out 3 (Char.chr ((g.n lsr 8) land 0xff));
  Bytes.blit g.entry 0 out 4 eb;
  Bytes.blit g.matrix 0 out (4 + eb) mb;
  out

let of_bytes b =
  if Bytes.length b < 4 then None
  else if Bytes.get b 0 <> 'S' || Char.code (Bytes.get b 1) <> wire_version then None
  else
    let n = Char.code (Bytes.get b 2) lor (Char.code (Bytes.get b 3) lsl 8) in
    if n <= 0 || n > 4096 then None
    else
      let eb = bits n and mb = bits (n * n) in
      if Bytes.length b <> 4 + eb + mb then None
      else
        Some
          {
            n;
            entry = Bytes.sub b 4 eb;
            matrix = Bytes.sub b (4 + eb) mb;
          }

let pp ?(name = string_of_int) fmt g =
  Format.fprintf fmt "sfip graph: %d syscalls, %d entry, %d transitions@."
    g.n (entry_count g) (transition_count g);
  Format.fprintf fmt "  entry:";
  iter_entries g (fun s -> Format.fprintf fmt " %s" (name s));
  Format.fprintf fmt "@.";
  iter_transitions g (fun ~from ~to_ ->
      Format.fprintf fmt "  %s -> %s@." (name from) (name to_))

(* ------------------------------------------------------------------ *)
(* Static extraction from a linked image.                              *)
(*                                                                     *)
(* Per-function forward dataflow at slot granularity.  The fact at a   *)
(* slot is (last, none): the set of syscalls that may have been the    *)
(* most recent one on some path reaching the slot, and whether some    *)
(* path reaches it with no syscall issued yet.  Each function yields a *)
(* summary (first, last, through) used at its call sites; indirect     *)
(* calls conservatively join every function's summary.  Transitions    *)
(* are accumulated directly into the output graph; the whole thing     *)
(* iterates to an interprocedural fixpoint (all sets only grow).       *)

type summary = {
  s_first : Bytes.t;  (** syscalls that can occur first in this function *)
  s_last : Bytes.t;  (** syscalls that can be the last one at return *)
  mutable s_through : bool;  (** can return without issuing any syscall *)
}

let bset_union ~into src =
  let changed = ref false in
  for i = 0 to Bytes.length src - 1 do
    let o = Char.code (Bytes.get into i) and s = Char.code (Bytes.get src i) in
    let u = o lor s in
    if u <> o then begin
      changed := true;
      Bytes.set into i (Char.chr u)
    end
  done;
  !changed

let bset_iter n b f =
  for s = 0 to n - 1 do
    if bit_get b s then f s
  done

let extract ~resolve ~n ?entries (image : Linker.image) =
  let g = create ~n in
  let nfuncs = Array.length image.Linker.funcs in
  let summaries =
    Array.init nfuncs (fun _ ->
        {
          s_first = Bytes.make (bits n) '\000';
          s_last = Bytes.make (bits n) '\000';
          s_through = false;
        })
  in
  let changed = ref true in
  (* Effect of one callee-shaped event (first, last, through) on the
     in-fact (last, none) at a site inside function [fi].  Returns the
     out-fact; accumulates digrams into [g] and firsts into the caller
     summary. *)
  let apply_event fi ~first ~last ~through (cur_last, cur_none) =
    bset_iter n cur_last (fun from ->
        bset_iter n first (fun to_ ->
            if not (allowed g ~from ~to_) then begin
              allow g ~from ~to_;
              changed := true
            end));
    if cur_none then
      if bset_union ~into:summaries.(fi).s_first first then changed := true;
    let out_last = Bytes.make (bits n) '\000' in
    ignore (bset_union ~into:out_last last);
    if through then ignore (bset_union ~into:out_last cur_last);
    (out_last, cur_none && through)
  in
  let joined_summary () =
    let first = Bytes.make (bits n) '\000'
    and last = Bytes.make (bits n) '\000'
    and through = ref false in
    Array.iter
      (fun s ->
        ignore (bset_union ~into:first s.s_first);
        ignore (bset_union ~into:last s.s_last);
        if s.s_through then through := true)
      summaries;
    (first, last, !through)
  in
  let lcode = image.Linker.lcode in
  let nslots = Array.length lcode in
  (* Slot extent of each function: slots owned by it. *)
  let analyse_function fi =
    let f = image.Linker.funcs.(fi) in
    let entry = f.Linker.f_entry in
    if entry < 0 || entry >= nslots then ()
    else begin
      let ind_first, ind_last, ind_through = joined_summary () in
      let facts = Hashtbl.create 64 in
      let get_fact slot =
        match Hashtbl.find_opt facts slot with
        | Some f -> f
        | None ->
            let f = (Bytes.make (bits n) '\000', false, false) in
            Hashtbl.replace facts slot f;
            f
      in
      (* fact = (last, none, reachable) *)
      let work = Queue.create () in
      let join slot ~last ~none =
        let olast, onone, oreach = get_fact slot in
        let c1 = bset_union ~into:olast last in
        let c2 = (none && not onone) || not oreach in
        if c1 || c2 then begin
          Hashtbl.replace facts slot (olast, onone || none, true);
          Queue.add slot work
        end
      in
      join entry ~last:(Bytes.make (bits n) '\000') ~none:true;
      let summary = summaries.(fi) in
      let at_return (last, none) =
        if bset_union ~into:summary.s_last last then changed := true;
        if none && not summary.s_through then begin
          summary.s_through <- true;
          changed := true
        end
      in
      let guard = ref 0 in
      while not (Queue.is_empty work) && !guard < 200_000 do
        incr guard;
        let slot = Queue.pop work in
        if slot >= 0 && slot < nslots && image.Linker.owner_of.(slot) = fi then begin
          let last, none, _ = get_fact slot in
          let fact = (Bytes.copy last, none) in
          let continue out =
            let olast, onone = out in
            match lcode.(slot) with
            | Linker.LJmp t -> join t ~last:olast ~none:onone
            | Linker.LJz { target; _ } ->
                join target ~last:olast ~none:onone;
                join (slot + 1) ~last:olast ~none:onone
            | Linker.LRet _ | Linker.LRetChecked _ -> at_return out
            | Linker.LHalt -> ()
            | _ -> join (slot + 1) ~last:olast ~none:onone
          in
          match lcode.(slot) with
          | Linker.LCallExtern { name; _ } -> (
              match resolve name with
              | Some s when s >= 0 && s < n ->
                  let one = Bytes.make (bits n) '\000' in
                  bit_set one s;
                  continue (apply_event fi ~first:one ~last:one ~through:false fact)
              | _ -> continue fact)
          | Linker.LCall { target; _ } ->
              let callee =
                if target >= 0 && target < nslots then image.Linker.entry_of.(target)
                else -1
              in
              if callee >= 0 && callee < nfuncs then
                let cs = summaries.(callee) in
                continue
                  (apply_event fi ~first:cs.s_first ~last:cs.s_last
                     ~through:cs.s_through fact)
              else continue fact
          | Linker.LCallIndirect _ | Linker.LCallIndirectChecked _ ->
              continue
                (apply_event fi ~first:ind_first ~last:ind_last
                   ~through:ind_through fact)
          | _ -> continue fact
        end
      done
    end
  in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    for fi = 0 to nfuncs - 1 do
      analyse_function fi
    done
  done;
  (* Entry set: syscalls that can come first from any entry function.  A
     hijacked app cannot therefore even *start* with an out-of-profile
     syscall. *)
  let is_entry =
    match entries with
    | None -> fun _ -> true
    | Some names -> fun f -> List.mem f.Linker.f_name names
  in
  Array.iteri
    (fun fi f ->
      if is_entry f then
        bset_iter n summaries.(fi).s_first (fun s -> allow_entry g s))
    image.Linker.funcs;
  g
