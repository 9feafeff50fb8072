module B = Workload.Builder

type graph = {
  vertex_count : int;
  offsets : int array;
  edges : int array;
}

let build_from_pairs vertices pairs =
  let degree = Array.make vertices 0 in
  List.iter (fun (u, _) -> degree.(u) <- degree.(u) + 1) pairs;
  let offsets = Array.make (vertices + 1) 0 in
  for v = 0 to vertices - 1 do
    offsets.(v + 1) <- offsets.(v) + degree.(v)
  done;
  let edges = Array.make offsets.(vertices) 0 in
  let cursor = Array.copy offsets in
  List.iter
    (fun (u, v) ->
      edges.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1)
    pairs;
  { vertex_count = vertices; offsets; edges }

let uniform_graph ~seed ~vertices ~avg_degree =
  let g = Prng.create seed in
  let pairs = ref [] in
  for u = 0 to vertices - 1 do
    for _ = 1 to avg_degree do
      pairs := (u, Prng.int g vertices) :: !pairs
    done
  done;
  build_from_pairs vertices !pairs

let rmat_graph ~seed ~vertices ~avg_degree =
  let g = Prng.create seed in
  let bits =
    let rec go b = if 1 lsl b >= vertices then b else go (b + 1) in
    go 0
  in
  let n = 1 lsl bits in
  let sample_vertex () =
    (* Recursive quadrant descent with (a, b, c, d) = (.57, .19, .19, .05). *)
    let u = ref 0 and v = ref 0 in
    for _ = 1 to bits do
      let r = Prng.float g 1.0 in
      let bu, bv =
        if r < 0.57 then (0, 0)
        else if r < 0.76 then (0, 1)
        else if r < 0.95 then (1, 0)
        else (1, 1)
      in
      u := (!u lsl 1) lor bu;
      v := (!v lsl 1) lor bv
    done;
    (!u, !v)
  in
  let pairs = ref [] in
  for _ = 1 to n * avg_degree do
    pairs := sample_vertex () :: !pairs
  done;
  build_from_pairs n !pairs

(* Virtual address layout for the traced arrays: offsets and edges are int64
   arrays; per-vertex payloads are 8-byte values. Regions are page-separated
   like distinct allocations. *)
type layout = {
  p_offsets : int;
  p_edges : int;
  p_data1 : int;
  p_data2 : int;
  p_frontier : int;
}

let elem = 8

let layout graph =
  let cursor = ref 0x2000_0000 in
  let alloc count =
    let base = !cursor in
    cursor := !cursor + ((count * elem) + 4095) / 4096 * 4096 + 4096;
    base
  in
  {
    p_offsets = alloc (graph.vertex_count + 1);
    p_edges = alloc (Array.length graph.edges);
    p_data1 = alloc graph.vertex_count;
    p_data2 = alloc graph.vertex_count;
    p_frontier = alloc graph.vertex_count;
  }

let ld b base i = B.emit b (base + (i * elem))

let scan_neighbours b lay graph v f =
  ld b lay.p_offsets v;
  ld b lay.p_offsets (v + 1);
  for e = graph.offsets.(v) to graph.offsets.(v + 1) - 1 do
    ld b lay.p_edges e;
    f graph.edges.(e)
  done

let bfs b graph =
  let lay = layout graph in
  let visited = Array.make graph.vertex_count false in
  let queue = Queue.create () in
  (* Sweep sources until the builder is full so disconnected graphs still
     generate work. *)
  for src = 0 to graph.vertex_count - 1 do
    if not visited.(src) then begin
      visited.(src) <- true;
      Queue.add src queue;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        ld b lay.p_frontier v;
        scan_neighbours b lay graph v (fun w ->
            ld b lay.p_data1 w;
            if not visited.(w) then begin
              visited.(w) <- true;
              ld b lay.p_data1 w;
              Queue.add w queue
            end)
      done
    end
  done

let pagerank b graph =
  let lay = layout graph in
  for _iter = 1 to 10 do
    for v = 0 to graph.vertex_count - 1 do
      ld b lay.p_data2 v;
      scan_neighbours b lay graph v (fun w ->
          ld b lay.p_data1 w;
          ld b lay.p_data2 v)
    done;
    for v = 0 to graph.vertex_count - 1 do
      ld b lay.p_data2 v;
      ld b lay.p_data1 v
    done
  done

let components b graph =
  let lay = layout graph in
  let label = Array.init graph.vertex_count (fun i -> i) in
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 0 to graph.vertex_count - 1 do
      ld b lay.p_data1 v;
      scan_neighbours b lay graph v (fun w ->
          ld b lay.p_data1 w;
          if label.(w) < label.(v) then begin
            label.(v) <- label.(w);
            changed := true;
            ld b lay.p_data1 v
          end)
    done
  done

let sssp b graph =
  (* Bellman-Ford-style rounds with implicit unit weights. *)
  let lay = layout graph in
  let dist = Array.make graph.vertex_count max_int in
  dist.(0) <- 0;
  for _round = 1 to 8 do
    for v = 0 to graph.vertex_count - 1 do
      ld b lay.p_data1 v;
      if dist.(v) < max_int then
        scan_neighbours b lay graph v (fun w ->
            ld b lay.p_data1 w;
            if dist.(v) + 1 < dist.(w) then begin
              dist.(w) <- dist.(v) + 1;
              ld b lay.p_data1 w
            end)
    done
  done

let degree_hist b graph =
  let lay = layout graph in
  (* Histogram of degrees: a scatter-heavy pattern (indexed writes). *)
  for v = 0 to graph.vertex_count - 1 do
    ld b lay.p_offsets v;
    ld b lay.p_offsets (v + 1);
    let d = graph.offsets.(v + 1) - graph.offsets.(v) in
    ld b lay.p_data1 (d mod graph.vertex_count);
    ld b lay.p_data1 (d mod graph.vertex_count)
  done

let algorithms =
  [
    ("bfs", bfs);
    ("pagerank", pagerank);
    ("components", components);
    ("sssp", sssp);
    ("degree-hist", degree_hist);
  ]

let algorithm_names = List.map fst algorithms

let trace ~algo ~graph n =
  let f = List.assoc algo algorithms in
  B.run n (fun b -> f b graph)

let graph_specs =
  [
    ("uni-small", `Uniform, 2_000, 8);
    ("uni-large", `Uniform, 20_000, 8);
    ("uni-dense", `Uniform, 4_000, 32);
    ("rmat-small", `Rmat, 2_048, 8);
    ("rmat-large", `Rmat, 16_384, 12);
  ]

let build_graph (name, kind, vertices, avg_degree) =
  let seed = Hashtbl.hash name in
  match kind with
  | `Uniform -> uniform_graph ~seed ~vertices ~avg_degree
  | `Rmat -> rmat_graph ~seed ~vertices ~avg_degree

let workloads () =
  List.concat_map
    (fun ((gname, _, _, _) as spec) ->
      (* Graphs are built lazily, once, and shared across the algorithms.
         The mutex makes the first force domain-safe: dataset builders
         generate several workloads of one graph on different domains at
         once, and OCaml 5 raises [Lazy.Undefined] on a concurrent force. *)
      let graph = lazy (build_graph spec) and m = Mutex.create () in
      let graph () = Mutex.protect m (fun () -> Lazy.force graph) in
      List.map
        (fun (aname, _) ->
          Workload.make
            ~name:(Printf.sprintf "%s.%s" aname gname)
            ~suite:Workload.Ligra ~group:aname
            (fun n -> trace ~algo:aname ~graph:(graph ()) n))
        algorithms)
    graph_specs
