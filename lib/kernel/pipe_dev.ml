type t = {
  chunks : bytes Queue.t;
  mutable front : bytes option; (* partially-consumed head chunk *)
  mutable size : int;
  capacity : int;
  mutable readers : int;
  mutable writers : int;
  read_wq : Waitq.t; (* woken when the pipe becomes readable / EOF *)
  write_wq : Waitq.t; (* woken when space frees up / readers vanish *)
}

let create ?(capacity = 65536) () =
  {
    chunks = Queue.create ();
    front = None;
    size = 0;
    capacity;
    readers = 0;
    writers = 0;
    read_wq = Waitq.create ~name:"pipe-read";
    write_wq = Waitq.create ~name:"pipe-write";
  }

let add_reader t = t.readers <- t.readers + 1
let add_writer t = t.writers <- t.writers + 1

let drop_reader t =
  t.readers <- max 0 (t.readers - 1);
  (* Writers blocked on a full pipe must wake to observe EPIPE. *)
  if t.readers = 0 then Waitq.wake t.write_wq

let drop_writer t =
  t.writers <- max 0 (t.writers - 1);
  (* Readers blocked on an empty pipe must wake to observe EOF. *)
  if t.writers = 0 then Waitq.wake t.read_wq

let bytes_available t = t.size

(* Level-triggered readiness: EOF and EPIPE count as ready, since the
   matching operation returns immediately. *)
let readable t = t.size > 0 || t.writers = 0
let writable t = t.size < t.capacity || t.readers = 0
let read_wq t = t.read_wq
let write_wq t = t.write_wq

let next_chunk t =
  match t.front with
  | Some b -> Some b
  | None -> if Queue.is_empty t.chunks then None else Some (Queue.pop t.chunks)

let read t n : bytes Errno.result =
  if n < 0 then Error Errno.EINVAL
  else if t.size = 0 then
    if t.writers > 0 then Error Errno.EAGAIN else Ok Bytes.empty
  else begin
    let out = Buffer.create (min n t.size) in
    let continue = ref true in
    while Buffer.length out < n && !continue do
      match next_chunk t with
      | None -> continue := false
      | Some chunk ->
          let want = n - Buffer.length out in
          if Bytes.length chunk <= want then begin
            Buffer.add_bytes out chunk;
            t.front <- None
          end
          else begin
            Buffer.add_bytes out (Bytes.sub chunk 0 want);
            t.front <- Some (Bytes.sub chunk want (Bytes.length chunk - want))
          end
    done;
    t.size <- t.size - Buffer.length out;
    if Buffer.length out > 0 then Waitq.wake t.write_wq;
    Ok (Buffer.to_bytes out)
  end

let write t src : int Errno.result =
  if t.readers = 0 then Error Errno.EPIPE
  else begin
    let room = t.capacity - t.size in
    if room = 0 then Error Errno.EAGAIN
    else begin
      let n = min room (Bytes.length src) in
      Queue.push (Bytes.sub src 0 n) t.chunks;
      t.size <- t.size + n;
      if n > 0 then Waitq.wake t.read_wq;
      Ok n
    end
  end
