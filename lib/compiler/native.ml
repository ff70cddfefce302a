type operand = Reg of string | Imm of int64

type ninstr =
  | NMov of { dst : string; src : operand }
  | NBin of { dst : string; op : Ir.binop; a : operand; b : operand }
  | NCmp of { dst : string; op : Ir.cmp; a : operand; b : operand }
  | NSelect of { dst : string; cond : operand; if_true : operand; if_false : operand }
  | NLoad of { dst : string; addr : operand; width : Ir.width }
  | NStore of { src : operand; addr : operand; width : Ir.width }
  | NMemcpy of { dst : operand; src : operand; len : operand }
  | NAtomic of { dst : string; op : Ir.binop; addr : operand; operand_ : operand; width : Ir.width }
  | NJmp of int
  | NJz of { cond : operand; target : int }
  | NCall of { dst : string option; target : int; args : operand list }
  | NCallExtern of { dst : string option; name : string; args : operand list }
  | NCallIndirect of { dst : string option; target : operand; args : operand list }
  | NCallIndirectChecked of { dst : string option; target : operand; args : operand list; label : int32 }
  | NRet of operand option
  | NRetChecked of { value : operand option; label : int32 }
  | NCfiLabel of int32
  | NIoRead of { dst : string; port : operand }
  | NIoWrite of { port : operand; src : operand }
  | NFence
  | NHalt

type symbol = { name : string; entry : int; params : string list }
type image = { base : int64; code : ninstr array; symbols : symbol list }

let slot_bytes = 16

let addr_of_index image i = Int64.add image.base (Int64.of_int (i * slot_bytes))

let index_of_addr image addr =
  let off = Int64.sub addr image.base in
  if Int64.compare off 0L < 0 then None
  else begin
    let off = Int64.to_int off in
    if off mod slot_bytes <> 0 then None
    else begin
      let i = off / slot_bytes in
      if i < Array.length image.code then Some i else None
    end
  end

let find_symbol image name = List.find_opt (fun s -> s.name = name) image.symbols
let symbol_of_index image i = List.find_opt (fun s -> s.entry = i) image.symbols

let addr_of_symbol image name =
  find_symbol image name |> Option.map (fun s -> addr_of_index image s.entry)

let count image p = Array.fold_left (fun acc i -> if p i then acc + 1 else acc) 0 image.code
