type policy =
  | Lru
  | Fifo
  | Plru
  | Srrip
  | Random_policy of int

type config = {
  sets : int;
  ways : int;
  block_bytes : int;
  policy : policy;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let config ?(block_bytes = 64) ?(policy = Lru) ~sets ~ways () =
  if not (is_power_of_two sets) then invalid_arg "Cache.config: sets must be a power of two";
  if not (is_power_of_two block_bytes) then
    invalid_arg "Cache.config: block_bytes must be a power of two";
  if ways <= 0 then invalid_arg "Cache.config: ways must be positive";
  { sets; ways; block_bytes; policy }

let size_bytes c = c.sets * c.ways * c.block_bytes
let config_name c = Printf.sprintf "%dset-%dway" c.sets c.ways

let policy_tag = function
  | Lru -> "lru"
  | Fifo -> "fifo"
  | Plru -> "plru"
  | Srrip -> "srrip"
  | Random_policy seed -> Printf.sprintf "rnd%d" seed

let config_tag c =
  Printf.sprintf "%ds%dw%db-%s" c.sets c.ways c.block_bytes (policy_tag c.policy)

type stats = { accesses : int; hits : int; misses : int }

let hit_rate s =
  if s.accesses = 0 then 0.0 else float_of_int s.hits /. float_of_int s.accesses

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

type t = {
  cfg : config;
  block_shift : int;
  set_mask : int;
  set_shift : int;  (** log2 sets, so tag extraction is one shift per access *)
  ways : int;
  tags : int array;  (** [sets * ways]; -1 = invalid *)
  meta : int array;  (** replacement metadata, meaning depends on policy *)
  mutable clock : int;  (** monotonically increasing use/insert counter *)
  mutable accesses : int;
  mutable hits : int;
  rng : Prng.t option;
}

let create cfg =
  {
    cfg;
    block_shift = log2 cfg.block_bytes;
    set_mask = cfg.sets - 1;
    set_shift = log2 cfg.sets;
    ways = cfg.ways;
    tags = Array.make (cfg.sets * cfg.ways) (-1);
    meta = Array.make (cfg.sets * cfg.ways) 0;
    clock = 0;
    accesses = 0;
    hits = 0;
    rng = (match cfg.policy with Random_policy seed -> Some (Prng.create seed) | _ -> None);
  }

let get_config t = t.cfg

let set_and_tag t addr =
  let block = addr lsr t.block_shift in
  (block land t.set_mask, block lsr t.set_shift)

let find_way t base tag =
  let tags = t.tags in
  let rec go w =
    if w >= t.ways then -1
    else if Array.unsafe_get tags (base + w) = tag then w
    else go (w + 1)
  in
  go 0

(* Bit-PLRU: each line has an MRU bit in [meta]; when all bits in a set are
   set they are cleared (except the line just touched). *)
let plru_touch t base way =
  t.meta.(base + way) <- 1;
  let all_set = ref true in
  for w = 0 to t.ways - 1 do
    if t.meta.(base + w) = 0 then all_set := false
  done;
  if !all_set then
    for w = 0 to t.ways - 1 do
      if w <> way then t.meta.(base + w) <- 0
    done

let on_hit t base way =
  t.clock <- t.clock + 1;
  match t.cfg.policy with
  | Lru -> t.meta.(base + way) <- t.clock
  | Fifo -> ()
  | Plru -> plru_touch t base way
  | Srrip -> t.meta.(base + way) <- 0
  | Random_policy _ -> ()

let victim t base =
  (* Prefer an invalid way. *)
  let invalid = ref (-1) in
  for w = t.ways - 1 downto 0 do
    if t.tags.(base + w) = -1 then invalid := w
  done;
  if !invalid >= 0 then !invalid
  else
    match t.cfg.policy with
    | Lru | Fifo ->
      let best = ref 0 in
      for w = 1 to t.ways - 1 do
        if t.meta.(base + w) < t.meta.(base + !best) then best := w
      done;
      !best
    | Plru ->
      let rec first_clear w =
        if w >= t.ways then 0
        else if t.meta.(base + w) = 0 then w
        else first_clear (w + 1)
      in
      first_clear 0
    | Srrip ->
      (* Find an RRPV-3 line, aging the whole set until one appears. *)
      let rec go () =
        let found = ref (-1) in
        for w = t.ways - 1 downto 0 do
          if t.meta.(base + w) >= 3 then found := w
        done;
        if !found >= 0 then !found
        else begin
          for w = 0 to t.ways - 1 do
            t.meta.(base + w) <- t.meta.(base + w) + 1
          done;
          go ()
        end
      in
      go ()
    | Random_policy _ -> (
      match t.rng with Some g -> Prng.int g t.ways | None -> assert false)

let on_fill t base way =
  t.clock <- t.clock + 1;
  match t.cfg.policy with
  | Lru | Fifo -> t.meta.(base + way) <- t.clock
  | Plru -> plru_touch t base way
  | Srrip -> t.meta.(base + way) <- 2
  | Random_policy _ -> ()

(* Fills a victim way and returns the evicted tag (or -1 if invalid). *)
let fill t base tag =
  let way = victim t base in
  let evicted = t.tags.(base + way) in
  t.tags.(base + way) <- tag;
  on_fill t base way;
  evicted

let rebuild_address t set tag =
  let block = (tag lsl t.set_shift) lor set in
  block lsl t.block_shift

let access_evict t addr =
  let set, tag = set_and_tag t addr in
  let base = set * t.ways in
  t.accesses <- t.accesses + 1;
  let way = find_way t base tag in
  if way >= 0 then begin
    t.hits <- t.hits + 1;
    on_hit t base way;
    (true, None)
  end
  else begin
    let evicted = fill t base tag in
    (false, if evicted < 0 then None else Some (rebuild_address t set evicted))
  end

(* Specialized LRU demand path: one fused scan yields the matching way, the
   first invalid way and the minimum-clock victim at once (the generic path
   rescans the set on a miss), and hits are swapped to slot 0 so temporally
   hot lines sit at the front of later scans. Reordering ways is sound for
   LRU only because its behaviour depends on the set's (tag, meta) multiset
   and never on way positions: clock values are unique, so the LRU victim
   is unambiguous, and invalid ways are interchangeable (tag -1, meta 0).
   Positional policies (PLRU, SRRIP, random) keep the generic path. *)
let access_lru t base tag =
  let tags = t.tags and meta = t.meta in
  let ways = t.ways in
  let w = ref 0 and hit_way = ref (-1) and inv = ref (-1) in
  let best = ref 0 and bestm = ref max_int in
  while !hit_way < 0 && !w < ways do
    let i = base + !w in
    let tw = Array.unsafe_get tags i in
    if tw = tag then hit_way := !w
    else begin
      (if tw < 0 then begin
         if !inv < 0 then inv := !w
       end
       else begin
         let m = Array.unsafe_get meta i in
         if m < !bestm then begin
           bestm := m;
           best := !w
         end
       end);
      incr w
    end
  done;
  t.clock <- t.clock + 1;
  if !hit_way >= 0 then begin
    t.hits <- t.hits + 1;
    let hw = base + !hit_way in
    if !hit_way > 0 then begin
      let t0 = Array.unsafe_get tags base and m0 = Array.unsafe_get meta base in
      Array.unsafe_set tags base tag;
      Array.unsafe_set meta base t.clock;
      Array.unsafe_set tags hw t0;
      Array.unsafe_set meta hw m0
    end
    else Array.unsafe_set meta base t.clock;
    true
  end
  else begin
    let v = base + (if !inv >= 0 then !inv else !best) in
    if v > base then begin
      let t0 = Array.unsafe_get tags base and m0 = Array.unsafe_get meta base in
      Array.unsafe_set tags base tag;
      Array.unsafe_set meta base t.clock;
      Array.unsafe_set tags v t0;
      Array.unsafe_set meta v m0
    end
    else begin
      Array.unsafe_set tags base tag;
      Array.unsafe_set meta base t.clock
    end;
    false
  end

(* The demand hot path: same transitions as [access_evict] but without
   materializing the (hit, eviction) tuple — dataset generation calls this
   once per trace element. *)
let access t addr =
  let block = addr lsr t.block_shift in
  let set = block land t.set_mask in
  let tag = block lsr t.set_shift in
  let base = set * t.ways in
  t.accesses <- t.accesses + 1;
  match t.cfg.policy with
  | Lru -> access_lru t base tag
  | _ ->
    let way = find_way t base tag in
    if way >= 0 then begin
      t.hits <- t.hits + 1;
      on_hit t base way;
      true
    end
    else begin
      ignore (fill t base tag);
      false
    end

let probe t addr =
  let set, tag = set_and_tag t addr in
  find_way t (set * t.ways) tag >= 0

let insert t addr =
  let set, tag = set_and_tag t addr in
  let base = set * t.ways in
  if find_way t base tag < 0 then ignore (fill t base tag)

let invalidate t addr =
  let set, tag = set_and_tag t addr in
  let base = set * t.ways in
  let way = find_way t base tag in
  if way < 0 then false
  else begin
    t.tags.(base + way) <- -1;
    t.meta.(base + way) <- 0;
    true
  end

let stats t = { accesses = t.accesses; hits = t.hits; misses = t.accesses - t.hits }

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.meta 0 (Array.length t.meta) 0;
  t.clock <- 0;
  t.accesses <- 0;
  t.hits <- 0
