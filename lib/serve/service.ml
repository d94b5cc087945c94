(* What the event loop serves. A [Server] ({!of_server}) and a router
   (vega.shard's [Rsock]) each provide one, so {!Evloop} is the only
   socket front end and never names either of them.

   An admitted request becomes a [stream]: the loop advances it one
   statement boundary per [st_step], interleaved with every other
   connection, and ships each [Sstmt] as a frame. Everything behind
   these closures may read a wall clock (request deadlines, queue
   expiry, retry backoff); the loop itself stays on its tick clock, so
   a scripted schedule still replays byte-for-byte. *)

type stream = {
  st_step : unit -> Server.stream_event;
  st_cancel : unit -> unit;  (* observed at the next statement boundary *)
  st_abort : cancelled:bool -> Proto.reject_reason -> unit;
      (* settle a stream that never got a slot: it must never begin *)
}

type t = {
  sv_start :
    plain:bool -> Proto.request -> (stream, Proto.reject_reason) result;
      (* admission; [plain] requests hide their statement frames *)
  sv_health : unit -> Health.snapshot;
  sv_drain : unit -> unit;  (* idempotent *)
  sv_shards : (unit -> string) option;  (* a router's shard-table line *)
}

let of_server srv =
  {
    sv_start =
      (fun ~plain:_ req ->
        Result.map
          (fun s ->
            {
              st_step = (fun () -> Server.stream_step srv s);
              st_cancel = (fun () -> Server.stream_cancel srv s);
              st_abort =
                (fun ~cancelled r -> Server.stream_abort srv s ~cancelled r);
            })
          (Server.stream_start srv req));
    sv_health = (fun () -> Server.health srv);
    sv_drain = (fun () -> Server.drain srv);
    sv_shards = None;
  }
