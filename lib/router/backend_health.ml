(* Per-backend liveness and latency tracking.

   A backend starts admitted ("up"). [eject_after] consecutive failures —
   from probes or real requests, both feed the same streak — eject it; any
   single success re-admits it. Latency is a 0.7/0.3 EWMA over successful
   round trips (the same blend the serve engine uses for its headroom
   estimate). All transitions happen under one mutex so concurrent
   forwarder threads and the prober never double-count an ejection. *)

type t = {
  m : Mutex.t;
  eject_after : int;
  mutable up : bool;
  mutable streak : int;  (* consecutive failures *)
  mutable ewma_s : float;  (* 0 until the first success *)
  mutable successes : int;
  mutable failures : int;
  mutable ejections : int;
  mutable readmissions : int;
}

let create ?(eject_after = 3) () =
  if eject_after < 1 then invalid_arg "Backend_health.create: eject_after must be >= 1";
  {
    m = Mutex.create ();
    eject_after;
    up = true;
    streak = 0;
    ewma_s = 0.0;
    successes = 0;
    failures = 0;
    ejections = 0;
    readmissions = 0;
  }

(* Both recorders return whether the up/down state flipped, so the caller
   can journal ejections/readmissions without re-deriving transitions. *)
let record_success t ~latency_s =
  Mutex.protect t.m (fun () ->
      t.successes <- t.successes + 1;
      t.streak <- 0;
      t.ewma_s <-
        (if t.ewma_s = 0.0 then latency_s else (0.7 *. t.ewma_s) +. (0.3 *. latency_s));
      if not t.up then begin
        t.up <- true;
        t.readmissions <- t.readmissions + 1;
        true
      end
      else false)

let record_failure t =
  Mutex.protect t.m (fun () ->
      t.failures <- t.failures + 1;
      t.streak <- t.streak + 1;
      if t.up && t.streak >= t.eject_after then begin
        t.up <- false;
        t.ejections <- t.ejections + 1;
        true
      end
      else false)

let up t = Mutex.protect t.m (fun () -> t.up)
let ewma_ms t = Mutex.protect t.m (fun () -> 1000.0 *. t.ewma_s)
let consecutive_failures t = Mutex.protect t.m (fun () -> t.streak)
let successes t = Mutex.protect t.m (fun () -> t.successes)
let failures t = Mutex.protect t.m (fun () -> t.failures)
let ejections t = Mutex.protect t.m (fun () -> t.ejections)
let readmissions t = Mutex.protect t.m (fun () -> t.readmissions)
