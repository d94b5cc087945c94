(* Streaming event loop: a tick-driven engine that decides on one
   thread and interleaves many connections' decodes one statement
   boundary at a time, plus a thin select() front-end that feeds real
   sockets into the same engine. It is the only socket server: a
   [Server] daemon ({!start}) and a router (vega.shard's [Rsock]) are
   both a {!Service.t} behind this loop.

   The split is deliberate (sans-IO): everything that *decides* —
   admission, slot scheduling, idle and slow-loris deadlines,
   backpressure shed, cancellation propagation — lives in the engine
   and is counted on the engine's own tick clock, never the wall
   clock. Scripted clients in faultcheck drive [open_conn] / [feed] /
   [take_output] / [tick] directly, so a chaos schedule replays
   byte-for-byte under a fixed seed; the socket front-end merely
   translates readiness into the same calls.

   Scheduling: the loop is the one place requests queue and shed. At
   most [ev_slots] streams decode concurrently ([ev_steps_per_tick]
   statement boundaries each per tick, applied in accept order);
   admitted streams beyond that wait in FIFO accept order up to
   [ev_wait_cap], past which the request is shed with a typed
   [Queue_full]. A waiting request whose deadline passes is expired by
   the service when its slot comes. A scripted engine steps its active
   streams one after another; a socket daemon steps them in parallel,
   one domain per slot, which is where a daemon's decode parallelism
   lives. Every health and drain reply carries the loop's own queue
   depth and cap, busy slots and slot count.

   Drain: the gate closes at once (new requests are rejected as
   [Draining]); the service drains and the drain reply goes out once
   every admitted stream, active or waiting, has settled.

   Cancellation: a [cancel] frame, an input EOF (half-close) or a peer
   reset all funnel into the stream's [st_cancel]; the decode observes
   the token at its next statement boundary, settles as [Cancelled],
   and the slot frees the same tick. A stream cancelled before it ever
   got a slot is aborted without journalling a byte.

   Backpressure: a peer that stops draining its socket while frames
   are queued trips the [ev_wbuf_limit] high-water mark; after
   [ev_stall_ticks] consecutive full ticks the connection is shed —
   pending frames are dropped, a typed [Slow_reader] final is queued
   in their place, and the decode is cancelled so the slot frees. The
   loop itself never blocks on any single connection. *)

module Wire = Vega_robust.Wire

type config = {
  ev_slots : int;  (* concurrent decode slots *)
  ev_wait_cap : int;  (* admitted-but-waiting bound *)
  ev_steps_per_tick : int;  (* statement boundaries per stream per tick *)
  ev_idle_ticks : int;  (* Reading-phase budget before idle shed *)
  ev_stall_ticks : int;  (* full-write-buffer ticks before slow shed *)
  ev_wbuf_limit : int;  (* write-buffer high-water mark, bytes *)
  ev_max_conns : int;  (* accept cap *)
}

let default_config =
  {
    ev_slots = 4;
    ev_wait_cap = 64;
    ev_steps_per_tick = 2;
    ev_idle_ticks = 2000;
    ev_stall_ticks = 100;
    ev_wbuf_limit = 64 * 1024;
    ev_max_conns = 1024;
  }

(* [Creq] is answered with the classic single reply line; [Cstream]
   with per-statement frames then a terminal [Ffinal]. Both ride the
   same stream machinery, so a plain request is cancellable too. *)
type mode = Mplain | Mframed

type cstate = {
  cs_conn : Conn.t;
  mutable cs_mode : mode;
  mutable cs_stream : Service.stream option;
  mutable cs_index : int;  (* statement frames produced so far *)
  mutable cs_active : bool;  (* holds a decode slot *)
  mutable cs_shed : bool;  (* slow-reader shed: typed final already sent *)
  mutable cs_cancel_sent : bool;  (* cancel already propagated *)
}

type stats = {
  ev_conns_open : int;
  ev_conns_accepted : int;
  ev_streams : int;  (* requests admitted past the gate *)
  ev_finished : int;  (* streams settled, any verdict *)
  ev_cancelled : int;  (* settled by cancellation *)
  ev_shed_slow : int;  (* slow-reader sheds *)
  ev_idle_closed : int;  (* idle / slow-loris sheds *)
  ev_dropped : int;  (* force-closed draining to a dead peer *)
  ev_ticks : int;
}

type t = {
  e_cfg : config;
  e_service : Service.t;
  e_steps :
    (unit -> Server.stream_event list) list -> Server.stream_event list list;
      (* runs one tick's stream steps: in order for a scripted engine,
         in parallel for a socket daemon (see [advance]) *)
  mutable e_tick : int;
  mutable e_conns : cstate list;  (* accept order — scheduling order *)
  mutable e_next_id : int;
  mutable e_active : int;  (* slots in use *)
  e_log : Buffer.t option;
      (* decision/event log, the determinism witness of scripted
         engines; a socket daemon keeps none, since nothing reads it
         and it would grow for as long as the daemon lives *)
  mutable e_stopping : bool;  (* drain requested: the gate is closed *)
  mutable e_drained : bool;  (* the service itself has drained *)
  mutable e_drain_waiters : cstate list;  (* awaiting the drain reply *)
  mutable e_reap : int list;  (* closed ids the front-end must collect *)
  mutable e_conns_accepted : int;
  mutable e_streams : int;
  mutable e_finished : int;
  mutable e_cancelled : int;
  mutable e_shed_slow : int;
  mutable e_idle_closed : int;
  mutable e_dropped : int;
}

let make ~cfg ~log ~steps service =
  {
    e_cfg = cfg;
    e_service = service;
    e_steps = steps;
    e_tick = 0;
    e_conns = [];
    e_next_id = 0;
    e_active = 0;
    e_log = log;
    e_stopping = false;
    e_drained = false;
    e_drain_waiters = [];
    e_reap = [];
    e_conns_accepted = 0;
    e_streams = 0;
    e_finished = 0;
    e_cancelled = 0;
    e_shed_slow = 0;
    e_idle_closed = 0;
    e_dropped = 0;
  }

(* A scripted engine over a server, logging every decision. *)
let create ?(cfg = default_config) server =
  make ~cfg
    ~log:(Some (Buffer.create 1024))
    ~steps:(List.map (fun run -> run ()))
    (Service.of_server server)

let log t = match t.e_log with Some b -> Buffer.contents b | None -> ""

let stats t =
  {
    ev_conns_open = List.length t.e_conns;
    ev_conns_accepted = t.e_conns_accepted;
    ev_streams = t.e_streams;
    ev_finished = t.e_finished;
    ev_cancelled = t.e_cancelled;
    ev_shed_slow = t.e_shed_slow;
    ev_idle_closed = t.e_idle_closed;
    ev_dropped = t.e_dropped;
    ev_ticks = t.e_tick;
  }

(* Every decision lands here as `t<tick> c<conn> <event>`: two runs of
   the same schedule must produce byte-identical logs. *)
let logf t cs fmt =
  Printf.ksprintf
    (fun s ->
      Option.iter
        (fun b ->
          Buffer.add_string b
            (Printf.sprintf "t%d c%d %s\n" t.e_tick (Conn.id cs.cs_conn) s))
        t.e_log)
    fmt

let reply_label = function
  | Proto.Done _ -> "done"
  | Proto.Failed _ -> "failed"
  | Proto.Rejected r -> "rejected:" ^ Proto.reject_label r

let find t id =
  List.find_opt (fun cs -> Conn.id cs.cs_conn = id) t.e_conns

let waiting_count t =
  List.length
    (List.filter
       (fun cs -> cs.cs_stream <> None && not cs.cs_active)
       t.e_conns)

(* The service's snapshot, with the four fields only the loop knows:
   its waiting streams, wait cap, busy slots and slot count. *)
let health t =
  {
    (t.e_service.sv_health ()) with
    Health.h_queue_depth = waiting_count t;
    h_queue_cap = t.e_cfg.ev_wait_cap;
    h_busy = t.e_active;
    h_domains = t.e_cfg.ev_slots;
  }

(* ---- replies ---- *)

(* Queue the connection's last line and start draining. *)
let answer t cs line =
  Conn.push cs.cs_conn line;
  Conn.set_phase cs.cs_conn Conn.Draining;
  Conn.mark_draining_at cs.cs_conn t.e_tick

(* The terminal answer, in the connection's negotiated framing. *)
let respond_final t cs reply =
  answer t cs
    (match cs.cs_mode with
    | Mplain -> Proto.encode_reply reply
    | Mframed -> Proto.encode_frame (Proto.Ffinal reply))

let close_conn t cs tag =
  if Conn.phase cs.cs_conn <> Conn.Closed then begin
    logf t cs "%s" tag;
    Conn.set_phase cs.cs_conn Conn.Closed;
    t.e_reap <- Conn.id cs.cs_conn :: t.e_reap
  end

(* ---- connection lifecycle (front-end entry points) ---- *)

let open_conn t =
  if t.e_stopping || List.length t.e_conns >= t.e_cfg.ev_max_conns then None
  else begin
    let id = t.e_next_id in
    t.e_next_id <- id + 1;
    t.e_conns_accepted <- t.e_conns_accepted + 1;
    let cs =
      {
        cs_conn = Conn.make ~id ~tick:t.e_tick;
        cs_mode = Mplain;
        cs_stream = None;
        cs_index = 0;
        cs_active = false;
        cs_shed = false;
        cs_cancel_sent = false;
      }
    in
    t.e_conns <- t.e_conns @ [ cs ];
    logf t cs "accept";
    Some id
  end

let release_slot t cs =
  if cs.cs_active then begin
    cs.cs_active <- false;
    t.e_active <- t.e_active - 1
  end;
  cs.cs_stream <- None;
  t.e_finished <- t.e_finished + 1

(* Propagate cancellation into the decode (idempotent). A stream still
   waiting for a slot is aborted on the spot — it must never begin. *)
let cancel_stream t cs ~why =
  match cs.cs_stream with
  | None -> ()
  | Some s ->
      if cs.cs_active then begin
        if not cs.cs_cancel_sent then begin
          cs.cs_cancel_sent <- true;
          logf t cs "cancel %s" why;
          s.Service.st_cancel ()
        end
      end
      else begin
        (* waiting: settle as cancelled without ever decoding *)
        logf t cs "cancel-waiting %s" why;
        s.Service.st_abort ~cancelled:true (Proto.Cancelled { at_stmt = 0 });
        release_slot t cs;
        t.e_cancelled <- t.e_cancelled + 1;
        respond_final t cs (Proto.Rejected (Proto.Cancelled { at_stmt = 0 }))
      end

(* EOF / half-close from the peer: it may still be reading, so typed
   finals still go out; any in-flight decode is cancelled. *)
let close_input t id =
  match find t id with
  | None -> ()
  | Some cs ->
      if Conn.input_open cs.cs_conn then begin
        Conn.close_input cs.cs_conn;
        logf t cs "eof";
        (match Conn.phase cs.cs_conn with
        | Conn.Reading ->
            (* never sent a complete command: nothing to answer *)
            close_conn t cs "close"
        | Conn.Admitted | Conn.Streaming ->
            cancel_stream t cs ~why:"half-close"
        | Conn.Draining | Conn.Closed -> ())
      end

(* Hard reset: writes would fail, so output is discarded and the
   connection cannot linger in Draining. *)
let peer_reset t id =
  match find t id with
  | None -> ()
  | Some cs ->
      if not (Conn.peer_gone cs.cs_conn) then begin
        Conn.set_peer_gone cs.cs_conn;
        Conn.close_input cs.cs_conn;
        logf t cs "reset";
        (match Conn.phase cs.cs_conn with
        | Conn.Admitted | Conn.Streaming ->
            cancel_stream t cs ~why:"reset";
            (* an active decode still settles through its next step;
               a waiting one was just aborted and can close now *)
            if cs.cs_stream = None then close_conn t cs "close"
        | Conn.Reading | Conn.Draining -> close_conn t cs "close"
        | Conn.Closed -> ())
      end

(* ---- admission ---- *)

let activate t cs =
  cs.cs_active <- true;
  t.e_active <- t.e_active + 1;
  Conn.set_phase cs.cs_conn Conn.Streaming;
  logf t cs "slot"

let admit t cs (req : Proto.request) =
  logf t cs "%s %s"
    (match cs.cs_mode with Mplain -> "req" | Mframed -> "stream")
    req.Proto.rq_fname;
  match
    if t.e_stopping then Error Proto.Draining
    else t.e_service.sv_start ~plain:(cs.cs_mode = Mplain) req
  with
  | Error r ->
      logf t cs "reject %s" (Proto.reject_label r);
      respond_final t cs (Proto.Rejected r)
  | Ok s ->
      t.e_streams <- t.e_streams + 1;
      cs.cs_stream <- Some s;
      if t.e_active < t.e_cfg.ev_slots then activate t cs
      else begin
        let depth = waiting_count t - 1 in
        if depth >= t.e_cfg.ev_wait_cap then begin
          let r = Proto.Queue_full { depth; cap = t.e_cfg.ev_wait_cap } in
          s.Service.st_abort ~cancelled:false r;
          (* aborted before starting: never held a slot, never ran *)
          cs.cs_stream <- None;
          t.e_streams <- t.e_streams - 1;
          logf t cs "qfull";
          respond_final t cs (Proto.Rejected r)
        end
        else begin
          Conn.set_phase cs.cs_conn Conn.Admitted;
          logf t cs "wait"
        end
      end

(* Drain lets in-flight work finish: the gate closes at once (new
   requests are rejected as [Draining]), but the service drains — its
   journal closed — and the drain reply goes out only once no
   connection holds a stream, active or waiting. *)
let finish_drain t =
  if
    t.e_stopping && (not t.e_drained)
    && not (List.exists (fun cs -> cs.cs_stream <> None) t.e_conns)
  then begin
    t.e_drained <- true;
    t.e_service.sv_drain ();
    List.iter
      (fun cs ->
        if Conn.phase cs.cs_conn <> Conn.Closed then
          answer t cs (Health.encode (health t)))
      (List.rev t.e_drain_waiters);
    t.e_drain_waiters <- []
  end

let handle_command t cs line =
  match Proto.decode_command line with
  | Proto.Malformed ->
      logf t cs "badline";
      respond_final t cs
        (Proto.Rejected (Proto.Bad_request "unparseable command line"))
  | Proto.Version_skew { got } ->
      logf t cs "skew";
      respond_final t cs
        (Proto.Rejected
           (Proto.Version_mismatch { got; want = Proto.version }))
  | Proto.Decoded (Proto.Creq req) ->
      cs.cs_mode <- Mplain;
      admit t cs req
  | Proto.Decoded (Proto.Cstream req) ->
      cs.cs_mode <- Mframed;
      admit t cs req
  | Proto.Decoded Proto.Ccancel ->
      logf t cs "cancel-idle";
      respond_final t cs
        (Proto.Rejected (Proto.Bad_request "cancel outside a stream"))
  | Proto.Decoded Proto.Chealth ->
      logf t cs "health";
      answer t cs (Health.encode (health t))
  | Proto.Decoded Proto.Cping ->
      logf t cs "ping";
      answer t cs (Wire.encode_line [ "pong" ])
  | Proto.Decoded Proto.Cshards -> (
      logf t cs "shards";
      match t.e_service.sv_shards with
      | Some table -> answer t cs (table ())
      | None ->
          respond_final t cs
            (Proto.Rejected (Proto.Bad_request "not a router: no shard table")))
  | Proto.Decoded Proto.Cdrain ->
      logf t cs "drain";
      t.e_stopping <- true;
      (* admitted, waiting for the in-flight streams like a stream
         waits for its slot *)
      Conn.set_phase cs.cs_conn Conn.Admitted;
      t.e_drain_waiters <- cs :: t.e_drain_waiters;
      finish_drain t

let handle_line t cs line =
  match Conn.phase cs.cs_conn with
  | Conn.Reading -> handle_command t cs line
  | Conn.Admitted | Conn.Streaming -> (
      (* the only in-stream frame a client may send is cancel; anything
         else is logged and ignored so a confused peer cannot corrupt
         the stream *)
      match Proto.decode_command line with
      | Proto.Decoded Proto.Ccancel -> cancel_stream t cs ~why:"frame"
      | Proto.Decoded _ | Proto.Version_skew _ | Proto.Malformed ->
          logf t cs "stray")
  | Conn.Draining | Conn.Closed -> ()

let feed t id data =
  match find t id with
  | None -> ()
  | Some cs ->
      if Conn.input_open cs.cs_conn && Conn.phase cs.cs_conn <> Conn.Closed
      then begin
        match
          Conn.feed cs.cs_conn ~limit:Wire.max_record_bytes data
        with
        | `Oversize bytes ->
            logf t cs "oversize";
            Conn.close_input cs.cs_conn;
            (match Conn.phase cs.cs_conn with
            | Conn.Reading ->
                respond_final t cs
                  (Proto.Rejected
                     (Proto.Oversize
                        { bytes; limit = Wire.max_record_bytes }))
            | Conn.Admitted | Conn.Streaming ->
                cancel_stream t cs ~why:"oversize"
            | Conn.Draining | Conn.Closed -> ())
        | `Lines lines -> List.iter (handle_line t cs) lines
      end

(* ---- output (front-end / scripted peer) ---- *)

let pending_output t id =
  match find t id with None -> 0 | Some cs -> Conn.pending cs.cs_conn

let output_chunk t id ~max =
  match find t id with
  | None -> ""
  | Some cs -> Conn.output_chunk cs.cs_conn ~max

(* Consumption progress while draining resets the drop clock: only a
   peer making no progress at all gets dropped, a slow-but-alive reader
   still receives its final. *)
let mark_progress t cs n =
  if n > 0 && Conn.phase cs.cs_conn = Conn.Draining then
    Conn.mark_draining_at cs.cs_conn t.e_tick

let consumed t id n =
  match find t id with
  | None -> ()
  | Some cs ->
      Conn.consumed cs.cs_conn n;
      mark_progress t cs n

let take_output t id ~max =
  match find t id with
  | None -> ""
  | Some cs ->
      let s = Conn.take_output cs.cs_conn ~max in
      mark_progress t cs (String.length s);
      s

let conn_phase t id = Option.map (fun cs -> Conn.phase cs.cs_conn) (find t id)

let reap t =
  let ids = List.rev t.e_reap in
  t.e_reap <- [];
  t.e_conns <-
    List.filter (fun cs -> Conn.phase cs.cs_conn <> Conn.Closed) t.e_conns;
  ids

(* ---- the tick ---- *)

(* Shed a reader that stopped draining: its queued frames are dropped
   (it is not reading them), a typed [Slow_reader] final replaces them,
   and the decode is cancelled so the slot frees at the next statement
   boundary. *)
let shed_slow t cs =
  let buffered = Conn.pending cs.cs_conn in
  logf t cs "shed-slow";
  t.e_shed_slow <- t.e_shed_slow + 1;
  Conn.clear_output cs.cs_conn;
  cs.cs_shed <- true;
  respond_final t cs
    (Proto.Rejected
       (Proto.Slow_reader { buffered; limit = t.e_cfg.ev_wbuf_limit }));
  cancel_stream t cs ~why:"slow-reader"

let check_deadlines t cs =
  match Conn.phase cs.cs_conn with
  | Conn.Reading ->
      (* slow-loris: budget for completing the command line is counted
         from accept, so trickling one byte per tick does not help *)
      if
        Conn.input_open cs.cs_conn
        && t.e_tick - Conn.opened_at cs.cs_conn >= t.e_cfg.ev_idle_ticks
      then begin
        logf t cs "idle-shed";
        t.e_idle_closed <- t.e_idle_closed + 1;
        Conn.close_input cs.cs_conn;
        respond_final t cs
          (Proto.Rejected (Proto.Idle_timeout { ticks = t.e_cfg.ev_idle_ticks }))
      end
  | Conn.Streaming ->
      if Conn.pending cs.cs_conn > t.e_cfg.ev_wbuf_limit then begin
        match Conn.wfull_since cs.cs_conn with
        | None -> Conn.set_wfull_since cs.cs_conn (Some t.e_tick)
        | Some since ->
            if t.e_tick - since >= t.e_cfg.ev_stall_ticks then shed_slow t cs
      end
      else Conn.set_wfull_since cs.cs_conn None
  | Conn.Draining -> (
      (* a drained final to a peer that stopped reading cannot pin the
         connection forever; any consumption progress resets this clock
         (see [mark_progress]) *)
      match Conn.drain_since cs.cs_conn with
      | Some since
        when Conn.pending cs.cs_conn > 0
             && t.e_tick - since >= t.e_cfg.ev_stall_ticks ->
          t.e_dropped <- t.e_dropped + 1;
          Conn.set_peer_gone cs.cs_conn;
          close_conn t cs "drop"
      | _ -> ())
  | Conn.Admitted | Conn.Closed -> ()

let promote t =
  List.iter
    (fun cs ->
      if
        t.e_active < t.e_cfg.ev_slots
        && (not cs.cs_active)
        && cs.cs_stream <> None
        && Conn.phase cs.cs_conn = Conn.Admitted
      then activate t cs)
    t.e_conns

(* Up to [ev_steps_per_tick] statement boundaries of one stream; its
   final ends the run early. *)
let run_steps t (s : Service.stream) () =
  let rec go n =
    if n = 0 then []
    else
      match s.st_step () with
      | Server.Sstmt _ as ev -> ev :: go (n - 1)
      | final -> [ final ]
  in
  go t.e_cfg.ev_steps_per_tick

(* The stream settled: free its slot and send its final, unless a shed
   or a vanished peer has already settled the connection. *)
let settled t cs reply =
  release_slot t cs;
  if cs.cs_shed || Conn.peer_gone cs.cs_conn then begin
    Conn.set_phase cs.cs_conn Conn.Draining;
    Conn.mark_draining_at cs.cs_conn t.e_tick
  end
  else respond_final t cs reply

(* Ship one step's event on its connection. *)
let apply_event t cs = function
  | Server.Sstmt st ->
      if
        cs.cs_mode = Mframed && (not cs.cs_shed)
        && not (Conn.peer_gone cs.cs_conn)
      then
        Conn.push cs.cs_conn
          (Proto.encode_frame (Server.stmt_frame ~index:cs.cs_index st));
      logf t cs "f%d" cs.cs_index;
      cs.cs_index <- cs.cs_index + 1
  | Server.Sdone reply ->
      logf t cs "done %s" (reply_label reply);
      settled t cs reply
  | Server.Scancelled { at_stmt } ->
      t.e_cancelled <- t.e_cancelled + 1;
      logf t cs "cancelled@%d" at_stmt;
      settled t cs (Proto.Rejected (Proto.Cancelled { at_stmt }))

(* Active streams never touch one another within a tick, so [e_steps]
   may run their steps in parallel; the events are applied afterwards
   in accept order, and the log reads as if each stream had stepped in
   turn. *)
let advance t =
  let active =
    List.filter_map
      (fun cs ->
        match cs.cs_stream with
        | Some s when cs.cs_active ->
            (* peer state observed at the statement boundary, exactly
               where the decode checks its token *)
            let gone =
              (Conn.peer_gone cs.cs_conn || not (Conn.input_open cs.cs_conn))
              && not cs.cs_cancel_sent
            in
            if gone then begin
              cs.cs_cancel_sent <- true;
              s.Service.st_cancel ()
            end;
            Some (cs, s, gone)
        | _ -> None)
      t.e_conns
  in
  let events = t.e_steps (List.map (fun (_, s, _) -> run_steps t s) active) in
  List.iter2
    (fun (cs, _, gone) evs ->
      if gone then logf t cs "cancel gone";
      List.iter (apply_event t cs) evs)
    active events

let close_out t =
  List.iter
    (fun cs ->
      match Conn.phase cs.cs_conn with
      | Conn.Draining when Conn.pending cs.cs_conn = 0 ->
          close_conn t cs "close"
      | _ -> ())
    t.e_conns

let tick t =
  t.e_tick <- t.e_tick + 1;
  List.iter (fun cs -> check_deadlines t cs) t.e_conns;
  promote t;
  advance t;
  finish_drain t;
  close_out t

(* Engine is quiescent: nothing left to schedule. *)
let idle t = t.e_conns = [] && t.e_reap = []
let stopped t = t.e_drained && idle t

(* ---- select() front-end ----

   The only part that touches file descriptors. One loop iteration =
   one engine tick; readiness is gathered with select (no poll binding
   in the Unix stdlib), reads and writes are non-blocking and bounded
   per round so one peer can never stall the rest. *)

type daemon = {
  d_engine : t;
  d_path : string;
  d_lfd : Unix.file_descr;
  d_tick_s : float;
  d_buf : Bytes.t;
      (* one read buffer per daemon, not per read (4 KiB goes straight
         to the major heap) and not per module (daemons run in several
         domains at once) *)
  mutable d_fds : (int * Unix.file_descr) list;  (* conn id -> fd *)
  d_stop : bool Atomic.t;  (* external stop request *)
  d_gang : Vega_util.Par.Gang.t;
      (* steps the tick's streams, one domain per slot: where a daemon's
         decode parallelism lives *)
}

let daemon_create ?(cfg = default_config) ?(tick_s = 0.002) service ~path =
  (* a peer resetting mid-write must surface as EPIPE, not kill the
     process (same disposition Sock installs) *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  if Sys.file_exists path then Sys.remove path;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 128;
  Unix.set_nonblock lfd;
  let gang = Vega_util.Par.Gang.create ~domains:cfg.ev_slots in
  {
    d_engine =
      make ~cfg ~log:None
        ~steps:(Vega_util.Par.Gang.map gang (fun run -> run ()))
        service;
    d_path = path;
    d_lfd = lfd;
    d_tick_s = tick_s;
    d_buf = Bytes.create 4096;
    d_fds = [];
    d_stop = Atomic.make false;
    d_gang = gang;
  }

let daemon_accept d =
  let continue = ref true in
  while !continue do
    match Unix.accept d.d_lfd with
    | fd, _ -> (
        Unix.set_nonblock fd;
        match open_conn d.d_engine with
        | Some id -> d.d_fds <- d.d_fds @ [ (id, fd) ]
        | None ->
            (* at capacity or draining: refuse at the door *)
            (try Unix.close fd with Unix.Unix_error _ -> ()))
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED | Unix.EINTR), _, _)
      ->
        continue := false
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        continue := false
  done

let daemon_read d (id, fd) =
  match Unix.read fd d.d_buf 0 (Bytes.length d.d_buf) with
  | 0 -> close_input d.d_engine id
  | n -> feed d.d_engine id (Bytes.sub_string d.d_buf 0 n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception
      Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
      peer_reset d.d_engine id

let daemon_write d (id, fd) =
  let continue = ref true in
  while !continue do
    let chunk = output_chunk d.d_engine id ~max:4096 in
    if chunk = "" then continue := false
    else
      match Unix.write_substring fd chunk 0 (String.length chunk) with
      | 0 ->
          peer_reset d.d_engine id;
          continue := false
      | n ->
          consumed d.d_engine id n;
          if n < String.length chunk then continue := false
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception
          Unix.Unix_error
            ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
          peer_reset d.d_engine id;
          continue := false
  done

let daemon_reap d =
  let closed = reap d.d_engine in
  List.iter
    (fun id ->
      match List.assoc_opt id d.d_fds with
      | Some fd ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          d.d_fds <- List.remove_assoc id d.d_fds
      | None -> ())
    closed

let daemon_cleanup d =
  List.iter
    (fun (_, fd) -> try Unix.close fd with Unix.Unix_error _ -> ())
    d.d_fds;
  d.d_fds <- [];
  (try Unix.close d.d_lfd with Unix.Unix_error _ -> ());
  Vega_util.Par.Gang.stop d.d_gang;
  if Sys.file_exists d.d_path then
    try Sys.remove d.d_path with Sys_error _ -> ()

(* Run until drained (Cdrain from a client, or [daemon_stop]). *)
let daemon_run d =
  let e = d.d_engine in
  let finally () = daemon_cleanup d in
  (try
     while not (stopped e) do
       (* same as a client's drain, minus the reply *)
       if Atomic.get d.d_stop then e.e_stopping <- true;
       let rds =
         (if e.e_stopping then [] else [ d.d_lfd ])
         @ List.filter_map
             (fun (id, fd) ->
               match conn_phase e id with
               | Some (Conn.Reading | Conn.Admitted | Conn.Streaming) ->
                   Some fd
               | _ -> None)
             d.d_fds
       in
       let wrs =
         List.filter_map
           (fun (id, fd) ->
             if pending_output e id > 0 then Some fd else None)
           d.d_fds
       in
       (* an active stream has its next step due now: only an idle
          loop waits out the tick *)
       let timeout = if e.e_active > 0 then 0.0 else d.d_tick_s in
       let r, w, _ =
         try Unix.select rds wrs [] timeout
         with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       if List.mem d.d_lfd r then daemon_accept d;
       List.iter
         (fun (id, fd) -> if List.mem fd r then daemon_read d (id, fd))
         d.d_fds;
       tick e;
       List.iter
         (fun (id, fd) ->
           if List.mem fd w || pending_output e id > 0 then
             daemon_write d (id, fd))
         d.d_fds;
       daemon_reap d
     done
   with ex ->
     finally ();
     raise ex);
  finally ()

(* ---- daemon handle (listener in its own domain) ---- *)

type handle = {
  h_daemon : daemon;
  mutable h_dom : unit Domain.t option;
  h_lock : Mutex.t;
  mutable h_exn : exn option;
}

let start_service ?cfg ?tick_s service ~path =
  let d = daemon_create ?cfg ?tick_s service ~path in
  let h =
    { h_daemon = d; h_dom = None; h_lock = Mutex.create (); h_exn = None }
  in
  h.h_dom <-
    Some
      (Domain.spawn (fun () ->
           try daemon_run d
           with ex -> Mutex.protect h.h_lock (fun () -> h.h_exn <- Some ex)));
  h

let start ?cfg ?tick_s server ~path =
  start_service ?cfg ?tick_s (Service.of_server server) ~path

let engine h = h.h_daemon.d_engine

let wait h =
  Option.iter Domain.join h.h_dom;
  h.h_dom <- None;
  match Mutex.protect h.h_lock (fun () -> h.h_exn) with
  | Some ex -> raise ex
  | None -> ()

(* Drain the service and wait for the loop to finish. *)
let stop h =
  Atomic.set h.h_daemon.d_stop true;
  wait h
