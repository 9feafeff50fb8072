type kind =
  | No_prefetch
  | Next_line
  | Stride of { degree : int; table_size : int }

type stride_entry = { mutable last_block : int; mutable stride : int; mutable confidence : int }

type state =
  | S_none
  | S_next
  | S_stride of { degree : int; table : stride_entry array }

type t = { state : state; mutable issued : int }

let create k =
  let state =
    match k with
    | No_prefetch -> S_none
    | Next_line -> S_next
    | Stride { degree; table_size } ->
      if degree <= 0 || table_size <= 0 then invalid_arg "Prefetch.create: bad stride params";
      S_stride
        { degree;
          table = Array.init table_size (fun _ -> { last_block = -1; stride = 0; confidence = 0 }) }
  in
  { state; issued = 0 }

(* The trace has no PCs, so the stride table is keyed by the 4KiB region the
   access falls in — a region-local stride detector, as in spatial-pattern
   prefetchers. *)
let region_key addr table_len = (addr lsr 12) mod table_len

let max_degree t =
  match t.state with S_none -> 0 | S_next -> 1 | S_stride { degree; _ } -> degree

(* Proposals are written into [buf] (sized >= [max_degree t] by the caller)
   and the count returned; the demand loop reuses one scratch buffer for the
   whole trace instead of consing a list per access. [No_prefetch] returns
   before computing anything. *)
let on_access_into t ~addr ~block_bytes ~buf =
  match t.state with
  | S_none -> 0
  | S_next ->
    buf.(0) <- ((addr / block_bytes) + 1) * block_bytes;
    t.issued <- t.issued + 1;
    1
  | S_stride { degree; table } ->
    let block = addr / block_bytes in
    let e = table.(region_key addr (Array.length table)) in
    let n =
      if e.last_block < 0 then 0
      else begin
        let s = block - e.last_block in
        if s <> 0 && s = e.stride then begin
          e.confidence <- min 3 (e.confidence + 1);
          if e.confidence >= 2 then begin
            for i = 0 to degree - 1 do
              buf.(i) <- (block + (s * (i + 1))) * block_bytes
            done;
            degree
          end
          else 0
        end
        else begin
          e.stride <- s;
          e.confidence <- 0;
          0
        end
      end
    in
    e.last_block <- block;
    t.issued <- t.issued + n;
    n

let on_access t ~addr ~block_bytes =
  match t.state with
  | S_none -> []
  | _ ->
    let buf = Array.make (max_degree t) 0 in
    let n = on_access_into t ~addr ~block_bytes ~buf in
    List.init n (fun i -> buf.(i))

let issued t = t.issued

let reset t =
  t.issued <- 0;
  match t.state with
  | S_none | S_next -> ()
  | S_stride { table; _ } ->
    Array.iter
      (fun e ->
        e.last_block <- -1;
        e.stride <- 0;
        e.confidence <- 0)
      table
