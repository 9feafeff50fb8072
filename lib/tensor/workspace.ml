(* Per-domain reusable scratch arena.

   Every hot-path kernel (packed GEMM panels, im2col column matrices,
   gradient temporaries) borrows its large scratch Bigarrays from here
   instead of allocating fresh ones, so steady-state training steps and
   served inferences stop churning the major heap.

   Design:
   - One arena per domain, held in domain-local storage. Dpool workers are
     persistent, so each lane's arena survives across parallel regions and
     reaches a steady state after the first few calls. A domain's threads
     share its arena, and a thread may be switched out at any allocation,
     so a slot is claimed (found, marked busy, or appended) under the
     arena's lock. Releasing is a plain store by the thread that holds it.
   - Slots are size-classed: capacities are rounded up to powers of two so
     differently-shaped requests of similar size share one slot. A borrow
     takes the smallest free slot that fits; a miss allocates a fresh
     backing buffer and (up to [max_slots]) retains it.
   - Borrows are scoped: [with_buf] releases the slot when the callback
     returns or raises, so nested borrows (e.g. a GEMM packing buffer inside
     a convolution's column buffer, with the nested Dpool region degraded to
     the serial path) simply occupy distinct slots of the same arena.
   - Opt-out: [set_enabled false] routes every borrow to a fresh
     allocation — the pre-arena behaviour, which the tests compare the
     arena against.

   The [alloc_count] counter is the load-bearing observable: it increments
   only when a borrow misses and a fresh backing buffer is created, so a
   warmed-up training step must leave it unchanged (asserted in
   test_workspace.ml). *)

type slot = { buf : Tensor.buffer; mutable busy : bool }
type arena = { lock : Mutex.t; mutable slots : slot list }

let enabled_flag = ref true

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* Counters are process-wide (summed over every domain's arena): the
   steady-state tests must observe lanes running on pool workers too. *)
let allocs = Atomic.make 0
let borrows = Atomic.make 0

let alloc_count () = Atomic.get allocs
let borrow_count () = Atomic.get borrows

let arena_key : arena Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { lock = Mutex.create (); slots = [] })

(* Beyond this many retained slots per domain, overflow borrows fall back to
   unretained fresh buffers instead of growing without bound. *)
let max_slots = 64

(* Below this capacity pooling is not worth the bookkeeping; tiny borrows
   still work, they just share the smallest size class. *)
let min_cap = 1024

let round_cap n =
  let c = ref min_cap in
  while !c < n do
    c := !c * 2
  done;
  !c

let create_buf cap = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout cap

(* Claim the smallest free slot with capacity >= n, else append a fresh
   busy one while the arena holds fewer than [max_slots]. [None] means an
   unretained buffer, and counts as a miss like a fresh slot does. *)
let claim arena n =
  Mutex.protect arena.lock (fun () ->
      let best = ref None in
      List.iter
        (fun s ->
          if (not s.busy) && Bigarray.Array1.dim s.buf >= n then
            match !best with
            | Some b when Bigarray.Array1.dim b.buf <= Bigarray.Array1.dim s.buf -> ()
            | _ -> best := Some s)
        arena.slots;
      (match !best with
      | Some s -> s.busy <- true
      | None ->
        Atomic.incr allocs;
        if List.length arena.slots < max_slots then begin
          let s = { buf = create_buf (round_cap n); busy = true } in
          arena.slots <- s :: arena.slots;
          best := Some s
        end);
      !best)

let with_buf ?(zero = false) shape f =
  let n = Array.fold_left ( * ) 1 shape in
  if n <= 0 then invalid_arg "Workspace.with_buf: dims must be positive";
  if not !enabled_flag then begin
    let t = Tensor.create shape in
    if zero then Tensor.fill t 0.0;
    f t
  end
  else begin
    Atomic.incr borrows;
    match claim (Domain.DLS.get arena_key) n with
    | Some s ->
      let t = Tensor.of_buffer (Bigarray.Array1.sub s.buf 0 n) shape in
      if zero then Tensor.fill t 0.0;
      Fun.protect ~finally:(fun () -> s.busy <- false) (fun () -> f t)
    | None ->
      let t = Tensor.of_buffer (create_buf n) shape in
      if zero then Tensor.fill t 0.0;
      f t
  end

let with_buf2 ?zero sa sb f =
  with_buf ?zero sa (fun a -> with_buf ?zero sb (fun b -> f a b))

let retained_slots () =
  (* Current domain's arena only; a diagnostic, not a global census. *)
  List.length (Domain.DLS.get arena_key).slots

let retained_elems () =
  List.fold_left
    (fun acc s -> acc + Bigarray.Array1.dim s.buf)
    0 (Domain.DLS.get arena_key).slots
