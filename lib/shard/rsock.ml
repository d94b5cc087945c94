(* Socket front door for the router: the router as a {!Service.t} on
   the event loop, so a router speaks the same newline Proto as a
   single shard and existing clients (vega-cli request) talk to it
   without knowing it is one.

   Every request, plain or framed, is a {!Router.stream}, stepped by the
   loop between every other connection and cancellable at the owning
   shard's next statement boundary; the loop hides a plain request's
   statement frames and answers its final as the reply. `shards`
   answers the per-shard status line routers alone can produce; plain
   servers reject that command, which is how a client can tell the two
   apart. *)

module Evloop = Vega_serve.Evloop
module Service = Vega_serve.Service
module Sock = Vega_serve.Sock

type listener = Evloop.handle

let service router =
  {
    Service.sv_start = (fun ~plain req -> Ok (Router.stream ~plain router req));
    sv_health = (fun () -> Router.health router);
    sv_drain = (fun () -> Router.drain router);
    sv_shards =
      Some (fun () -> Router.encode_status (Router.status ~probe:true router));
  }

let start ?cfg router ~path = Evloop.start_service ?cfg (service router) ~path

(* Drains the router (every shard), then waits for the loop. *)
let stop = Evloop.stop

(* Client-side convenience: fetch and decode a router's shard table. *)
let shard_status ~socket =
  Option.bind (Sock.shards ~socket ()) Router.decode_status
