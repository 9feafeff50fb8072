(* Consistent hash ring over CRC-32 points.

   Each node contributes [vnodes] virtual points at
   mix(crc32(name ^ "#" ^ i)); a key lands on the first point clockwise
   from mix(crc32(key)). The router's keys are built from
   [Cache.config_tag], so a request's shard is a pure function of its
   canonical config descriptor — deterministic across processes and across
   restarts.
   The extra avalanche mix matters: CRC-32 of near-identical strings
   ("b#1" vs "b#2") differs in few bits, and without finalization the
   points would clump. Ties (astronomically rare 32-bit collisions) break
   on node name so placement is independent of the order nodes were
   listed. *)

type t = {
  points : (int * string) array;  (* (ring point, node), sorted ascending *)
  nodes : string array;  (* distinct node names, input order *)
}

(* 32-bit avalanche finalizer (the classic murmur3-style fmix variant with
   Ettinger's constants). *)
let mix h =
  let m = 0xFFFFFFFF in
  let h = h land m in
  let h = h lxor (h lsr 16) in
  let h = h * 0x7feb352d land m in
  let h = h lxor (h lsr 15) in
  let h = h * 0x846ca68b land m in
  h lxor (h lsr 16)

let point_of_key key = mix (Crc32.digest key)

let create ?(vnodes = 128) nodes =
  if nodes = [] then invalid_arg "Hash_ring.create: need at least one node";
  if vnodes < 1 then invalid_arg "Hash_ring.create: vnodes must be >= 1";
  let distinct = List.sort_uniq String.compare nodes in
  if List.length distinct <> List.length nodes then
    invalid_arg "Hash_ring.create: node names must be distinct";
  let points =
    Array.init
      (List.length nodes * vnodes)
      (fun k ->
        let node = List.nth nodes (k / vnodes) in
        (point_of_key (Printf.sprintf "%s#%d" node (k mod vnodes)), node))
  in
  Array.sort
    (fun (p1, n1) (p2, n2) ->
      match compare (p1 : int) p2 with 0 -> String.compare n1 n2 | c -> c)
    points;
  { points; nodes = Array.of_list nodes }

let nodes t = Array.to_list t.nodes

(* Index of the first point with point >= p, wrapping past the top. *)
let first_at_or_after t p =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.points.(mid) < p then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let lookup t ~key = snd t.points.(first_at_or_after t (point_of_key key))

let successors t ~key n =
  let n = min n (Array.length t.nodes) in
  if n <= 0 then []
  else begin
    let start = first_at_or_after t (point_of_key key) in
    let total = Array.length t.points in
    let seen = Hashtbl.create 8 in
    let out = ref [] in
    let i = ref 0 in
    while List.length !out < n && !i < total do
      let node = snd t.points.((start + !i) mod total) in
      if not (Hashtbl.mem seen node) then begin
        Hashtbl.add seen node ();
        out := node :: !out
      end;
      incr i
    done;
    List.rev !out
  end

(* Per-node share of [keys], for balance tests and the stats reply. *)
let spread t keys =
  let counts = Hashtbl.create 8 in
  Array.iter (fun n -> Hashtbl.replace counts n 0) t.nodes;
  List.iter
    (fun k ->
      let n = lookup t ~key:k in
      Hashtbl.replace counts n (1 + Hashtbl.find counts n))
    keys;
  Array.to_list (Array.map (fun n -> (n, Hashtbl.find counts n)) t.nodes)
