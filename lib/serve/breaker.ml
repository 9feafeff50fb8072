type state = Closed | Open | Half_open

type internal = St_closed | St_open of float  (* probe-eligible time *) | St_half_open

type t = {
  threshold : int;
  cooldown : float;
  now : unit -> float;
  m : Mutex.t;
  mutable st : internal;
  mutable failures : int;
  mutable opened : int;
}

let create ?(threshold = 3) ?(cooldown = 5.0) ~now () =
  if threshold < 1 then invalid_arg "Breaker.create: threshold must be >= 1";
  if cooldown < 0.0 then invalid_arg "Breaker.create: cooldown must be >= 0";
  {
    threshold;
    cooldown;
    now;
    m = Mutex.create ();
    st = St_closed;
    failures = 0;
    opened = 0;
  }

(* An expired cooldown surfaces as Half_open the moment anyone looks.
   Call only with the lock held. *)
let refresh t =
  match t.st with
  | St_open until when t.now () >= until -> t.st <- St_half_open
  | _ -> ()

let observe t =
  refresh t;
  match t.st with St_closed -> Closed | St_open _ -> Open | St_half_open -> Half_open

(* Every observation and transition runs under the mutex: the engine is
   multi-entrant, so batches may complete concurrently, and a torn
   read-modify-write of the failure streak could miss a trip or
   double-open. The critical sections are a few loads and stores —
   contention is negligible next to a model forward pass. *)
let state t = Mutex.protect t.m (fun () -> observe t)

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

let allow t = state t <> Open

let trip t =
  t.opened <- t.opened + 1;
  t.st <- St_open (t.now () +. t.cooldown)

let record_success t =
  Mutex.protect t.m (fun () ->
      t.failures <- 0;
      t.st <- St_closed)

let record_failure t =
  Mutex.protect t.m (fun () ->
      refresh t;
      t.failures <- t.failures + 1;
      match t.st with
      | St_half_open -> trip t (* failed probe: straight back to open *)
      | St_closed when t.failures >= t.threshold -> trip t
      | _ -> ())

let consecutive_failures t = Mutex.protect t.m (fun () -> t.failures)
let times_opened t = Mutex.protect t.m (fun () -> t.opened)
