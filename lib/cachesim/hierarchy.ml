type level = L1 | L2 | L3

let level_name = function L1 -> "L1" | L2 -> "L2" | L3 -> "L3"

type t = {
  levels : level array;  (** innermost first; non-empty *)
  caches : Cache.t array;  (** one per level, same order *)
  prefetcher : Prefetch.t;
  pf_scratch : int array;  (** >= Prefetch.max_degree cells, reused per access *)
  l1_block_bytes : int;
}

let create ?l2 ?l3 ?(l1_prefetcher = Prefetch.No_prefetch) ~l1 () =
  if l3 <> None && l2 = None then
    invalid_arg "Hierarchy.create: cannot have an L3 without an L2";
  let configured =
    (L1, l1)
    :: List.filter_map Fun.id
         [ Option.map (fun c -> (L2, c)) l2; Option.map (fun c -> (L3, c)) l3 ]
  in
  let prefetcher = Prefetch.create l1_prefetcher in
  {
    levels = Array.of_list (List.map fst configured);
    caches = Array.of_list (List.map (fun (_, c) -> Cache.create c) configured);
    prefetcher;
    pf_scratch = Array.make (max 1 (Prefetch.max_degree prefetcher)) 0;
    l1_block_bytes = l1.Cache.block_bytes;
  }

let levels t = Array.copy t.levels

let run_observed t ~f trace =
  let caches = t.caches in
  let depth = Array.length caches in
  let l1 = Array.unsafe_get caches 0 in
  let bb = t.l1_block_bytes and scratch = t.pf_scratch in
  let has_pf = Prefetch.max_degree t.prefetcher > 0 in
  for j = 0 to Array.length trace - 1 do
    let addr = Array.unsafe_get trace j in
    let npf =
      if has_pf then Prefetch.on_access_into t.prefetcher ~addr ~block_bytes:bb ~buf:scratch
      else 0
    in
    let hit = Cache.access l1 addr in
    f 0 addr hit;
    (* The miss walk: each deeper level in turn, until one hits. *)
    let i = ref 1 and missed = ref (not hit) in
    while !missed && !i < depth do
      let hit = Cache.access (Array.unsafe_get caches !i) addr in
      f !i addr hit;
      missed := not hit;
      incr i
    done;
    (* L1 prefetches are generated from the demand stream and fill L1 only. *)
    for k = 0 to npf - 1 do
      Cache.insert l1 (Array.unsafe_get scratch k)
    done
  done

let run t trace = run_observed t ~f:(fun _ _ _ -> ()) trace

let prefetches t = Prefetch.issued t.prefetcher

let stats t = Array.to_list (Array.map2 (fun lvl c -> (lvl, Cache.stats c)) t.levels t.caches)

let reset t =
  Array.iter Cache.reset t.caches;
  Prefetch.reset t.prefetcher
