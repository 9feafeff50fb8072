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

(* How a set picks its victim. LRU and FIFO keep every set in order (see
   [ordered] below), so the victim is always the last slot and no
   replacement state is stored. PLRU, SRRIP and Random choose by way
   position: their bits and draws are tied to ways, so blocks stay where
   they were filled. *)
type positional = Bit_plru | Rrip | Random_way of Prng.t

type kind =
  | Ordered of { promote : bool }  (** [promote]: a hit moves to slot 0 (LRU) *)
  | Positional of positional

type t = {
  kind : kind;
  block_shift : int;
  set_mask : int;
  set_shift : int;  (** log2 sets, so tag extraction is one shift per access *)
  ways : int;
  tags : int array;  (** [sets * ways]; -1 = invalid *)
  meta : int array;  (** per-way PLRU bits or SRRIP RRPVs; empty for the rest *)
  mutable accesses : int;
  mutable hits : int;
}

let create cfg =
  let n = cfg.sets * cfg.ways in
  let kind =
    match cfg.policy with
    | Lru -> Ordered { promote = true }
    | Fifo -> Ordered { promote = false }
    | Plru -> Positional Bit_plru
    | Srrip -> Positional Rrip
    | Random_policy seed -> Positional (Random_way (Prng.create seed))
  in
  {
    kind;
    block_shift = log2 cfg.block_bytes;
    set_mask = cfg.sets - 1;
    set_shift = log2 cfg.sets;
    ways = cfg.ways;
    tags = Array.make n (-1);
    meta = (match cfg.policy with Plru | Srrip -> Array.make n 0 | _ -> [||]);
    accesses = 0;
    hits = 0;
  }

(* What a demand access or a fill did: [present] when the block was
   already cached, otherwise the tag it displaced, or -1 when it took an
   invalid way. *)
let present = -2

(* --- ordered sets (LRU, FIFO) ---

   Slot 0 holds the most recently used block (LRU) or the most recently
   filled one (FIFO), and invalid slots sit at the tail. Every fill goes to
   slot 0 and shifts the blocks before the first invalid slot down one; in
   a full set the last slot falls off, and that is the victim: the least
   recently used or the oldest filled block, as a per-way use or fill stamp
   would choose. An LRU hit moves its block to slot 0 the same way; a FIFO
   hit leaves it where it is. Nothing but [reset] invalidates a slot, so
   the order holds and a scan can stop at the first invalid slot. Valid
   tags are never negative: addresses from outside are bounded to
   [0, 2^52] by Validate and Trace_io, and [lsr] clears the sign bit of any
   other address unless blocks are one byte in a single set. *)

(* The slot of [tag] in [base .. last], else the first invalid slot, else
   [last]: in a full set without [tag], the victim. *)
let scan (tags : int array) base last tag =
  let i = ref base in
  while
    !i < last
    &&
    let tw = Array.unsafe_get tags !i in
    tw <> tag && tw >= 0
  do
    incr i
  done;
  !i

(* Moves slots [base .. i - 1] to [base + 1 .. i]. *)
let shift (tags : int array) base i =
  for j = i downto base + 1 do
    Array.unsafe_set tags j (Array.unsafe_get tags (j - 1))
  done

let ordered tags base last tag ~promote =
  let i = scan tags base last tag in
  let found = Array.unsafe_get tags i in
  if found = tag then begin
    if promote && i > base then begin
      shift tags base i;
      Array.unsafe_set tags base tag
    end;
    present
  end
  else begin
    shift tags base i;
    Array.unsafe_set tags base tag;
    found
  end

(* --- positional sets (PLRU, SRRIP, Random) --- *)

let rec find (tags : int array) tag i last =
  if i > last then -1 else if Array.unsafe_get tags i = tag then i else find tags tag (i + 1) last

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

let on_hit t p base way =
  match p with
  | Bit_plru -> plru_touch t base way
  | Rrip -> t.meta.(base + way) <- 0
  | Random_way _ -> ()

let victim t p base =
  (* Prefer an invalid way. *)
  let invalid = ref (-1) in
  for w = t.ways - 1 downto 0 do
    if t.tags.(base + w) = -1 then invalid := w
  done;
  if !invalid >= 0 then !invalid
  else
    match p with
    | Bit_plru ->
      let rec first_clear w =
        if w >= t.ways then 0
        else if t.meta.(base + w) = 0 then w
        else first_clear (w + 1)
      in
      first_clear 0
    | Rrip ->
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
    | Random_way g -> Prng.int g t.ways

let on_fill t p base way =
  match p with
  | Bit_plru -> plru_touch t base way
  | Rrip -> t.meta.(base + way) <- 2
  | Random_way _ -> ()

let[@inline never] positional t p base tag ~demand =
  let i = find t.tags tag base (base + t.ways - 1) in
  if i >= 0 then begin
    if demand then on_hit t p base (i - base);
    present
  end
  else begin
    let way = victim t p base in
    let dropped = t.tags.(base + way) in
    t.tags.(base + way) <- tag;
    on_fill t p base way;
    dropped
  end

(* --- the one path: demand accesses and prefetch fills ---

   A fill ([demand = false]) of a block already present changes nothing. *)

let lookup t base tag ~demand =
  match t.kind with
  | Ordered { promote } -> ordered t.tags base (base + t.ways - 1) tag ~promote:(promote && demand)
  | Positional p -> positional t p base tag ~demand

let demand t base tag =
  t.accesses <- t.accesses + 1;
  let r = lookup t base tag ~demand:true in
  if r = present then t.hits <- t.hits + 1;
  r

let access t addr =
  let block = addr lsr t.block_shift in
  demand t ((block land t.set_mask) * t.ways) (block lsr t.set_shift) = present

let rebuild_address t set tag =
  let block = (tag lsl t.set_shift) lor set in
  block lsl t.block_shift

let access_evict t addr =
  let block = addr lsr t.block_shift in
  let set = block land t.set_mask in
  let r = demand t (set * t.ways) (block lsr t.set_shift) in
  if r = present then (true, None)
  else (false, if r < 0 then None else Some (rebuild_address t set r))

let insert t addr =
  let block = addr lsr t.block_shift in
  ignore (lookup t ((block land t.set_mask) * t.ways) (block lsr t.set_shift) ~demand:false)

let probe t addr =
  let block = addr lsr t.block_shift in
  let base = (block land t.set_mask) * t.ways and tag = block lsr t.set_shift in
  let last = base + t.ways - 1 in
  match t.kind with
  | Ordered _ -> Array.unsafe_get t.tags (scan t.tags base last tag) = tag
  | Positional _ -> find t.tags tag base last >= 0

let stats t = { accesses = t.accesses; hits = t.hits; misses = t.accesses - t.hits }

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.meta 0 (Array.length t.meta) 0;
  t.accesses <- 0;
  t.hits <- 0
