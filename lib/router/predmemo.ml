(* Content-addressed prediction memo.

   Keys are canonical descriptor strings covering everything a prediction
   depends on ([Cache.config_tag] + trace source digest); values are wire
   replies with the per-request fields (id, latency_ms, memo) stripped, so
   a hit can be re-dressed for any requester. Bounded LRU: a hashtable over an
   intrusive doubly-linked recency list, all under one mutex (forwarder
   threads share the memo). Capacity 0 disables the memo entirely. *)

type node = {
  key : string;
  mutable value : Sjson.t;
  mutable prev : node option;  (* towards MRU *)
  mutable next : node option;  (* towards LRU *)
}

type t = {
  m : Mutex.t;
  capacity : int;
  table : (string, node) Hashtbl.t;
  mutable mru : node option;
  mutable lru : node option;
  mutable hits : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Predmemo.create: capacity must be >= 0";
  {
    m = Mutex.create ();
    capacity;
    table = Hashtbl.create (max 16 capacity);
    mru = None;
    lru = None;
    hits = 0;
    evictions = 0;
  }

(* list surgery (lock held) *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.mru <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.mru;
  n.prev <- None;
  (match t.mru with Some m -> m.prev <- Some n | None -> t.lru <- Some n);
  t.mru <- Some n

let find t key =
  if t.capacity = 0 then None
  else
    Mutex.protect t.m (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some n ->
          t.hits <- t.hits + 1;
          unlink t n;
          push_front t n;
          Some n.value
        | None -> None)

let add t key value =
  if t.capacity > 0 then
    Mutex.protect t.m (fun () ->
        (match Hashtbl.find_opt t.table key with
        | Some n ->
          n.value <- value;
          unlink t n;
          push_front t n
        | None ->
          let n = { key; value; prev = None; next = None } in
          Hashtbl.replace t.table key n;
          push_front t n);
        while Hashtbl.length t.table > t.capacity do
          match t.lru with
          | None -> Hashtbl.reset t.table (* unreachable: table larger than list *)
          | Some victim ->
            unlink t victim;
            Hashtbl.remove t.table victim.key;
            t.evictions <- t.evictions + 1
        done)

let clear t =
  Mutex.protect t.m (fun () ->
      Hashtbl.reset t.table;
      t.mru <- None;
      t.lru <- None)

let length t = Mutex.protect t.m (fun () -> Hashtbl.length t.table)
let hits t = Mutex.protect t.m (fun () -> t.hits)
let evictions t = Mutex.protect t.m (fun () -> t.evictions)
