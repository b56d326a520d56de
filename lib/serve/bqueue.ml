(* Bounded blocking FIFO shared between connection threads (producers)
   and pool-worker domains (consumers).  See bqueue.mli. *)

type 'a t = {
  capacity : int;
  q : 'a Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable peak : int; (* high-water mark of [Queue.length q] *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity must be >= 1";
  {
    capacity;
    q = Queue.create ();
    m = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
    peak = 0;
  }

let with_lock t f =
  Mutex.lock t.m;
  match f () with
  | v ->
    Mutex.unlock t.m;
    v
  | exception e ->
    Mutex.unlock t.m;
    raise e

let try_push t v =
  with_lock t (fun () ->
      if t.closed || Queue.length t.q >= t.capacity then false
      else begin
        Queue.push v t.q;
        t.peak <- max t.peak (Queue.length t.q);
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  with_lock t (fun () ->
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
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let length t = with_lock t (fun () -> Queue.length t.q)
let peak t = with_lock t (fun () -> t.peak)
