type t = {
  main : Cache.t;
  block_bytes : int;
  entries : int array;
      (** block addresses, most recently spilled first; -1 = invalid, only
          at the tail *)
  mutable accesses : int;
  mutable main_hits : int;
  mutable victim_hits : int;
}

let create ~main ~victim_entries =
  if victim_entries <= 0 then invalid_arg "Victim.create: need at least one entry";
  {
    main = Cache.create main;
    block_bytes = main.Cache.block_bytes;
    entries = Array.make victim_entries (-1);
    accesses = 0;
    main_hits = 0;
    victim_hits = 0;
  }

let block_of t addr = addr / t.block_bytes

let victim_find t block =
  let n = Array.length t.entries in
  let rec go i =
    if i >= n || t.entries.(i) < 0 then -1
    else if t.entries.(i) = block then i
    else go (i + 1)
  in
  go 0

(* The buffer is kept in spill order, as [Cache] keeps an LRU set: a spill
   goes to slot 0 and pushes the rest down one, so when the buffer is full
   the least recently spilled entry falls off the end. *)
let victim_insert t block =
  let e = t.entries in
  Array.blit e 0 e 1 (Array.length e - 1);
  e.(0) <- block

(* Recovering entry [i] closes its gap, so invalid entries stay at the tail. *)
let victim_remove t i =
  let e = t.entries in
  let n = Array.length e in
  Array.blit e (i + 1) e i (n - i - 1);
  e.(n - 1) <- -1

let spill t evicted =
  match evicted with
  | None -> ()
  | Some addr -> victim_insert t (block_of t addr)

let access t addr =
  t.accesses <- t.accesses + 1;
  let hit, evicted = Cache.access_evict t.main addr in
  if hit then begin
    t.main_hits <- t.main_hits + 1;
    `Main_hit
  end
  else begin
    (* [Cache.access_evict] already allocated the block in the main cache;
       probe the buffer for the requested line *before* spilling the evictee
       so the spill cannot displace the entry being recovered. *)
    let i = victim_find t (block_of t addr) in
    let recovered = i >= 0 in
    if recovered then victim_remove t i;
    spill t evicted;
    if recovered then begin
      t.victim_hits <- t.victim_hits + 1;
      `Victim_hit
    end
    else `Miss
  end

type stats = {
  accesses : int;
  main_hits : int;
  victim_hits : int;
  misses : int;
}

let stats (t : t) =
  {
    accesses = t.accesses;
    main_hits = t.main_hits;
    victim_hits = t.victim_hits;
    misses = t.accesses - t.main_hits - t.victim_hits;
  }

let hit_rate s =
  if s.accesses = 0 then 0.0
  else float_of_int (s.main_hits + s.victim_hits) /. float_of_int s.accesses

let reset t =
  Cache.reset t.main;
  Array.fill t.entries 0 (Array.length t.entries) (-1);
  t.accesses <- 0;
  t.main_hits <- 0;
  t.victim_hits <- 0
