type policy = Round_robin | Least_connections

let policy_to_string = function
  | Round_robin -> "round-robin"
  | Least_connections -> "least-connections"

let policy_of_string = function
  | "rr" | "round-robin" -> Some Round_robin
  | "lc" | "least-connections" -> Some Least_connections
  | _ -> None

type t = {
  policy : policy;
  n : int;
  up : bool array;
  inflight : int array;
  assigned : int array;
  completed : int array;
  mutable cursor : int;
}

let create ~nodes policy =
  if nodes < 1 then invalid_arg "Lb.create: nodes < 1";
  {
    policy;
    n = nodes;
    up = Array.make nodes true;
    inflight = Array.make nodes 0;
    assigned = Array.make nodes 0;
    completed = Array.make nodes 0;
    cursor = 0;
  }

let policy t = t.policy
let set_up t i b = t.up.(i) <- b
let is_up t i = t.up.(i)
let assigned t i = t.assigned.(i)

let assign t =
  let pick =
    match t.policy with
    | Round_robin ->
        let rec scan k =
          if k = t.n then None
          else
            let i = (t.cursor + k) mod t.n in
            if t.up.(i) then Some i else scan (k + 1)
        in
        let r = scan 0 in
        (match r with Some i -> t.cursor <- (i + 1) mod t.n | None -> ());
        r
    | Least_connections ->
        (* Deterministic tie-break: fewest in flight, then fewest ever
           assigned, then lowest id — without the second key, a
           strictly sequential assign/complete load would pin every
           request to node 0. *)
        let best = ref None in
        for i = 0 to t.n - 1 do
          if t.up.(i) then
            match !best with
            | None -> best := Some i
            | Some j ->
                if
                  (t.inflight.(i), t.assigned.(i), i)
                  < (t.inflight.(j), t.assigned.(j), j)
                then best := Some i
        done;
        !best
  in
  (match pick with
  | Some i ->
      t.inflight.(i) <- t.inflight.(i) + 1;
      t.assigned.(i) <- t.assigned.(i) + 1
  | None -> ());
  pick

let complete t i =
  if t.inflight.(i) <= 0 then invalid_arg "Lb.complete: nothing in flight";
  t.inflight.(i) <- t.inflight.(i) - 1;
  t.completed.(i) <- t.completed.(i) + 1
