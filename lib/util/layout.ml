let user_start = 0x0000_0000_0000_1000L
let user_end = 0x0000_8000_0000_0000L
let ghost_start = 0xffff_ff00_0000_0000L
let ghost_end = 0xffff_ff80_0000_0000L
let kernel_start = 0xffff_ff80_0000_0000L
let ghost_escape_bit = 0x0000_0080_0000_0000L (* bit 39 *)
let sva_start = 0xffff_ffc0_0000_0000L
let sva_end = 0xffff_ffc0_4000_0000L
let kernel_code_start = 0xffff_ff80_0000_0000L
(* Native code translations live in [kernel_code_start, kernel_code_end);
   the MMU checks refuse to remap or write-enable frames mapped there. *)
let kernel_code_end = 0xffff_ff80_1000_0000L
let kernel_data_start = 0xffff_ff81_0000_0000L

let in_user a = U64.in_range a ~lo:user_start ~hi:user_end
let in_ghost a = U64.in_range a ~lo:ghost_start ~hi:ghost_end
let in_kernel a = U64.ge a kernel_start
let in_sva a = U64.in_range a ~lo:sva_start ~hi:sva_end
let in_kernel_code a = U64.in_range a ~lo:kernel_code_start ~hi:kernel_code_end
let mask_kernel_target a = Int64.logor a kernel_start
