(* Fixed-size domain pool with deterministic result ordering.

   domainslib is not a dependency, so this is a hand-rolled pool:
   workers pull item indices from an atomic counter and write results
   into a slot array indexed by item, so the output order is always the
   input order regardless of which domain ran what. The first exception
   (by item index) is re-raised in the caller after every worker has
   stopped; a stop flag keeps workers from starting new items once an
   exception is recorded. *)

type 'a slot = Empty | Ok_ of 'a | Error_ of exn * Printexc.raw_backtrace

(* Results in item order; the first failure by item index is re-raised,
   for determinism. Every slot before a failure is filled: items are
   taken in index order and a taken item always finishes. *)
let collect slots =
  Array.to_list
    (Array.map
       (function
         | Ok_ v -> v
         | Error_ (e, bt) -> Printexc.raise_with_backtrace e bt
         | Empty -> assert false)
       slots)

let map_ctx ~domains ~ctx f items =
  let items = Array.of_list items in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let domains = max 1 (min domains n) in
    let slots = Array.make n Empty in
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    let worker w () =
      let c = ctx w in
      let continue_ = ref true in
      while !continue_ do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get failed then continue_ := false
        else
          match f c items.(i) with
          | v -> slots.(i) <- Ok_ v
          | exception e ->
              slots.(i) <- Error_ (e, Printexc.get_raw_backtrace ());
              Atomic.set failed true
      done
    in
    if domains = 1 then worker 0 ()
    else begin
      (* worker 0 runs in the calling domain so a pool of size d spawns
         only d-1 domains *)
      let spawned =
        Array.init (domains - 1) (fun k -> Domain.spawn (worker (k + 1)))
      in
      worker 0 ();
      Array.iter Domain.join spawned
    end;
    collect slots
  end

let map ~domains f items = map_ctx ~domains ~ctx:(fun _ -> ()) (fun () x -> f x) items

(* Persistent [map]: long-lived domains that run one small batch after
   another (an event loop's tick), where spawning domains per batch
   would cost more than the work. The caller works too, so a gang of
   size d has d-1 domains, spawned with the first batch of two or more
   items; a smaller batch runs inline. One caller at a time. *)
module Gang = struct
  type t = {
    size : int;
    lock : Mutex.t;
    work : Condition.t;  (* items queued, or stopping *)
    idle : Condition.t;  (* the last running item finished *)
    todo : (unit -> unit) Queue.t;
    mutable running : int;  (* items taken, not finished *)
    mutable stop : bool;
    mutable doms : unit Domain.t array;  (* the [size - 1] spawned workers *)
  }

  let create ~domains =
    {
      size = max 1 domains;
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      todo = Queue.create ();
      running = 0;
      stop = false;
      doms = [||];
    }

  (* Run one queued item; false when none is queued. Called and returns
     with [lock] held. *)
  let run_one g =
    match Queue.take_opt g.todo with
    | None -> false
    | Some item ->
        g.running <- g.running + 1;
        Mutex.unlock g.lock;
        item ();
        Mutex.lock g.lock;
        g.running <- g.running - 1;
        if g.running = 0 && Queue.is_empty g.todo then
          Condition.broadcast g.idle;
        true

  let worker g () =
    Mutex.lock g.lock;
    while not g.stop do
      if not (run_one g) then Condition.wait g.work g.lock
    done;
    Mutex.unlock g.lock

  let map g f = function
    | ([] | [ _ ]) as items -> List.map f items
    | items ->
        if Array.length g.doms = 0 && g.size > 1 then begin
          g.stop <- false;
          g.doms <- Array.init (g.size - 1) (fun _ -> Domain.spawn (worker g))
        end;
        let slots = Array.make (List.length items) Empty in
        Mutex.lock g.lock;
        List.iteri
          (fun i x ->
            Queue.add
              (fun () ->
                slots.(i) <-
                  (try Ok_ (f x)
                   with e -> Error_ (e, Printexc.get_raw_backtrace ())))
              g.todo)
          items;
        Condition.broadcast g.work;
        while run_one g do () done;
        while g.running > 0 do Condition.wait g.idle g.lock done;
        Mutex.unlock g.lock;
        collect slots

  let stop g =
    Mutex.protect g.lock (fun () ->
        g.stop <- true;
        Condition.broadcast g.work);
    Array.iter Domain.join g.doms;
    g.doms <- [||]
end
