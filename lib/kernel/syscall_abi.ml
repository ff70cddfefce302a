(* The numbered system-call ABI.


   One generated table drives everything: syscall numbers are the
   indices of [specs], and names, register arities and result codecs
   are read back out of it.  [Sysno.t] is private int — the only ways
   to make one are the [sys_*] values below, [Sysno.of_int] (bounds
   checked: the ring's raw wire numbers come in here) and
   [Sysno.of_name] — so a validated number is a type, not a
   convention.

   Results crossing the user/kernel boundary go through the single
   encode/decode convention defined at the bottom:

   - [Int_result]: non-negative payload, or [-Errno.to_int e] on
     error (the classic Unix convention).  [Errno.to_int] is injective
     (see [Errno.all]), so the round-trip is lossless.
   - [Addr_result]: addresses are full 64-bit values, so only the
     Linux [MAP_FAILED] window [-4096, -1] decodes as an errno;
     anything else — including ghost-region pointers high in the
     canonical hole — passes through verbatim. *)

type result_codec = Int_result | Addr_result

type desc = { name : string; arity : int; codec : result_codec }

let specs =
  let i name arity = { name; arity; codec = Int_result } in
  [|
    i "read" 3;
    i "write" 3;
    i "open" 2;
    i "close" 1;
    i "lseek" 2;
    i "unlink" 1;
    i "mkdir" 1;
    i "stat" 1;
    i "rename" 2;
    i "fstat" 1;
    i "dup2" 2;
    i "readdir" 1;
    i "fsync" 0;
    i "getpid" 0;
    i "fork" 0;
    i "execve" 1;
    i "exit" 1;
    i "wait" 1;
    { name = "mmap"; arity = 1; codec = Addr_result };
    i "munmap" 2;
    i "allocgm" 2;
    i "freegm" 2;
    i "signal" 2;
    i "kill" 2;
    i "sigreturn" 0;
    i "pipe" 0;
    i "listen" 1;
    i "accept" 1;
    i "connect" 1;
    i "send" 3;
    i "recv" 3;
    i "select" 1;
    i "poll" 1;
    i "set_blocking" 2;
    i "ring_enter" 3;
  |]

module Sysno = struct
  type t = int

  let count = Array.length specs
  let of_int n = if n >= 0 && n < count then Some n else None
  let to_int n = n
  let equal = Int.equal
  let all = List.init count Fun.id
  let to_name n = specs.(n).name

  let of_name =
    let by_name = Hashtbl.create 64 in
    Array.iteri (fun i d -> Hashtbl.replace by_name d.name i) specs;
    fun name -> Hashtbl.find_opt by_name name
end

let describe (n : Sysno.t) = specs.(Sysno.to_int n)
let arity n = (describe n).arity
let codec n = (describe n).codec

let sysno n : Sysno.t =
  match Sysno.of_int n with
  | Some s -> s
  | None -> invalid_arg "Syscall_abi.sysno"

let sys_read = sysno 0
let sys_write = sysno 1
let sys_open = sysno 2
let sys_close = sysno 3
let sys_lseek = sysno 4
let sys_unlink = sysno 5
let sys_mkdir = sysno 6
let sys_stat = sysno 7
let sys_rename = sysno 8
let sys_fstat = sysno 9
let sys_dup2 = sysno 10
let sys_readdir = sysno 11
let sys_fsync = sysno 12
let sys_getpid = sysno 13
let sys_fork = sysno 14
let sys_execve = sysno 15
let sys_exit = sysno 16
let sys_wait = sysno 17
let sys_mmap = sysno 18
let sys_munmap = sysno 19
let sys_allocgm = sysno 20
let sys_freegm = sysno 21
let sys_signal = sysno 22
let sys_kill = sysno 23
let sys_sigreturn = sysno 24
let sys_pipe = sysno 25
let sys_listen = sysno 26
let sys_accept = sysno 27
let sys_connect = sysno 28
let sys_send = sysno 29
let sys_recv = sysno 30
let sys_select = sysno 31
let sys_poll = sysno 32
let sys_set_blocking = sysno 33
let sys_ring_enter = sysno 34

module Entry = struct
  type 'h t = {
    sysno : Sysno.t;
    name : string;
    arity : int;
    codec : result_codec;
    handler : 'h;
  }

  let make sysno handler =
    let d = describe sysno in
    { sysno; name = d.name; arity = d.arity; codec = d.codec; handler }
end

(* Result encoding.  Encode/decode happen at the OCaml level — the
   simulated machine's cost of moving a register is already inside the
   trap protocol — so these charge nothing. *)

let encode_int = function
  | Ok n -> Int64.of_int n
  | Error e -> Int64.of_int (-Errno.to_int e)

let decode_int v =
  if Int64.compare v 0L >= 0 then Ok (Int64.to_int v)
  else begin
    match Errno.of_int (Int64.to_int (Int64.neg v)) with
    | Some e -> Error e
    | None -> Error Errno.EINVAL (* unknown negative: malformed handler *)
  end

let encode_addr = function
  | Ok va -> va
  | Error e -> Int64.of_int (-Errno.to_int e)

let decode_addr v =
  if Int64.compare v (-4096L) >= 0 && Int64.compare v 0L < 0 then begin
    match Errno.of_int (Int64.to_int (Int64.neg v)) with
    | Some e -> Error e
    | None -> Error Errno.EINVAL
  end
  else Ok v

let encode codec r =
  match codec with
  | Int_result -> encode_int (Result.map Int64.to_int r)
  | Addr_result -> encode_addr r

let decode codec v =
  match codec with
  | Int_result -> Result.map Int64.of_int (decode_int v)
  | Addr_result -> decode_addr v
