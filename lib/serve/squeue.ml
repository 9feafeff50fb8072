type 'a t = {
  capacity : int;
  q : 'a Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Squeue.create: capacity must be >= 1";
  {
    capacity;
    q = Queue.create ();
    m = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
  }

let try_push t x =
  Mutex.protect t.m (fun () ->
      if t.closed || Queue.length t.q >= t.capacity then false
      else begin
        Queue.push x t.q;
        Condition.signal t.nonempty;
        true
      end)

let try_pop t =
  Mutex.protect t.m (fun () -> if Queue.is_empty t.q then None else Some (Queue.pop t.q))

let pop t =
  Mutex.protect t.m (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.q) then Some (Queue.pop t.q)
        else if t.closed then None
        else begin
          Condition.wait t.nonempty t.m;
          wait ()
        end
      in
      wait ())

let close t =
  Mutex.protect t.m (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let length t = Mutex.protect t.m (fun () -> Queue.length t.q)
