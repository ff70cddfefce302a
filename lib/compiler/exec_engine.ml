type t = Slots | Compiled

let all = [ Slots; Compiled ]
let to_string = function Slots -> "slots" | Compiled -> "compiled"
