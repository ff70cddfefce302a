type fd_kind =
  | File of { ino : int; mutable offset : int }
  | Pipe_read of Pipe_dev.t
  | Pipe_write of Pipe_dev.t
  | Sock_listen of int
  | Sock_conn of int
  | Console_out

type state = Running | Zombie of int

type t = {
  pid : int;
  mutable parent : int;
  pt : Pagetable.t;
  tid : int;
  fds : fd_kind Tbl.Int.t;
  mutable next_fd : int;
  user_frames : int Tbl.Int64.t;
  cow : unit Tbl.Int64.t;
  mutable ghost_regions : (int64 * int) list;
  mutable mmap_cursor : int64;
  mutable state : state;
  signal_handlers : (int, int64) Hashtbl.t;
  code_map : (int64, int64 -> unit) Hashtbl.t;
  mutable image : Appimage.t option;
  blocking : unit Tbl.Int.t;
  mutable policy : Syscall_policy.t option;
}

let make ~pid ~parent ~pt ~tid =
  {
    pid;
    parent;
    pt;
    tid;
    fds = Tbl.Int.create 16;
    next_fd = 3;
    user_frames = Tbl.Int64.create 64;
    cow = Tbl.Int64.create 16;
    ghost_regions = [];
    mmap_cursor = 0x0000_2000_0000_0000L;
    state = Running;
    signal_handlers = Hashtbl.create 8;
    code_map = Hashtbl.create 8;
    image = None;
    blocking = Tbl.Int.create 4;
    policy = None;
  }

let add_fd t kind =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Tbl.Int.replace t.fds fd kind;
  fd

let find_fd t fd = Tbl.Int.find_opt t.fds fd

let remove_fd t fd =
  Tbl.Int.remove t.fds fd;
  Tbl.Int.remove t.blocking fd

let set_blocking t fd on =
  if on then Tbl.Int.replace t.blocking fd () else Tbl.Int.remove t.blocking fd

let is_blocking t fd = Tbl.Int.mem t.blocking fd
let is_zombie t = match t.state with Zombie _ -> true | Running -> false
