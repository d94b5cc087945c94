(* Client side of the newline-delimited protocol over a Unix domain
   socket: one connection per command (`req`, `stream`, `health`,
   `ping`, `drain`, `shards`), with deadline-guarded connect and reads.
   The server side is {!Evloop}.

   Incoming lines are read through a bounded accumulator; a line longer
   than the limit reports its size instead of being allocated. *)

module Wire = Vega_robust.Wire

let max_line_bytes = Wire.max_record_bytes

(* A peer that disappears (or stops reading) mid-write must surface as
   EPIPE on the write — the default SIGPIPE disposition would kill the
   whole process instead. *)
let () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

(* ---- framed IO ---- *)

(* Outcome of a blocking whole-line write: a peer that vanished
   mid-line is a typed condition, not an escaping [Unix_error]. *)
type write_outcome = Wrote | Peer_gone

(* Write the whole line, completing partial writes in a loop and
   retrying on EINTR — [Unix.single_write] maps to one write(2), which
   may move fewer bytes than asked (small socket buffers, signals), and
   a truncated reply would be indistinguishable from a torn line to the
   peer. A gone peer (EPIPE/ECONNRESET, or a half-close surfacing as a
   zero-byte write) abandons the write with [Peer_gone]. *)
let send_all fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let rec go off =
    if off >= len then Wrote
    else
      match Unix.single_write fd data off (len - off) with
      | 0 -> Peer_gone
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          Peer_gone
  in
  go 0

let write_line fd line = ignore (send_all fd line : write_outcome)

exception Timeout of string
(* A deadline-guarded connect or read ran out of patience. The typed
   exception lets the fleet's health probes classify a wedged shard as
   stalled instead of hanging the probe loop with it. *)

(* EINTR-safe readiness wait against an *absolute* deadline: a signal
   interrupting select just recomputes the remaining budget, so a storm
   of signals cannot extend the deadline. *)
let wait_readable fd ~deadline =
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then false
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> go ()
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Read one newline-terminated line, never allocating past [limit];
   [`Oversize n] reports how many bytes arrived before giving up. With
   [deadline] set, every byte must arrive before the absolute deadline
   or the read raises {!Timeout} — a peer that accepts the connection
   and then goes silent cannot wedge the caller. *)
let read_bounded_line ?(limit = max_line_bytes) ?deadline fd =
  let buf = Buffer.create 256 in
  let byte = Bytes.create 1 in
  let rec go () =
    (match deadline with
    | Some d when not (wait_readable fd ~deadline:d) ->
        raise (Timeout "read: peer silent past the deadline")
    | _ -> ());
    match Unix.read fd byte 0 1 with
    | 0 -> if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
    | _ -> (
        match Bytes.get byte 0 with
        | '\n' -> `Line (Buffer.contents buf)
        | c ->
            if Buffer.length buf >= limit then `Oversize (Buffer.length buf + 1)
            else begin
              Buffer.add_char buf c;
              go ()
            end)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Eof
  in
  go ()

(* Deadline-guarded connect: non-blocking connect, then an EINTR-safe
   writability wait; SO_ERROR delivers the real connect verdict. *)
let connect_deadline fd addr ~deadline =
  Unix.set_nonblock fd;
  Fun.protect
    ~finally:(fun () -> try Unix.clear_nonblock fd with Unix.Unix_error _ -> ())
    (fun () ->
      let rec wait () =
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then
          raise (Timeout "connect: no acceptance before the deadline")
        else
          match Unix.select [] [ fd ] [] remaining with
          | _, [], _ -> wait ()
          | _ -> (
              match Unix.getsockopt_error fd with
              | None -> ()
              | Some e -> raise (Unix.Unix_error (e, "connect", "")))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      let rec attempt () =
        match Unix.connect fd addr with
        | () -> ()
        | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EALREADY), _, _)
          ->
            wait ()
        | exception Unix.Unix_error (Unix.EISCONN, _, _) -> ()
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            (* a unix-domain connect against a full accept backlog fails
               with EAGAIN (it is never queued): back off briefly and
               retry the connect itself until the deadline *)
            let remaining = deadline -. Unix.gettimeofday () in
            if remaining <= 0.0 then
              raise (Timeout "connect: no acceptance before the deadline")
            else begin
              (try ignore (Unix.select [] [] [] (Float.min 0.01 remaining))
               with Unix.Unix_error (Unix.EINTR, _, _) -> ());
              attempt ()
            end
      in
      attempt ())

(* ---- client side ---- *)

(* [timeout_s] covers the whole exchange — connect and every read — as
   one absolute deadline, so a peer that accepts fast and replies
   slowly cannot stretch the budget. Without it behavior is unchanged:
   block as long as the peer does. *)
let with_conn ?timeout_s ~socket f =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (match deadline with
      | None -> Unix.connect fd (Unix.ADDR_UNIX socket)
      | Some deadline -> connect_deadline fd (Unix.ADDR_UNIX socket) ~deadline);
      f fd deadline)

let roundtrip ?timeout_s ~socket command =
  with_conn ?timeout_s ~socket (fun fd deadline ->
      write_line fd (Proto.encode_command command);
      match read_bounded_line ?deadline fd with
      | `Line line -> Some line
      | `Eof | `Oversize _ -> None)

let request ?timeout_s ~socket req =
  match roundtrip ?timeout_s ~socket (Proto.Creq req) with
  | None -> Proto.Failed "connection closed without a reply"
  | Some line -> (
      match Proto.decode_reply line with
      | Proto.Decoded reply -> reply
      | Proto.Version_skew { got } ->
          Proto.Rejected (Proto.Version_mismatch { got; want = Proto.version })
      | Proto.Malformed -> Proto.Failed "unparseable reply line")
  | exception Timeout what -> Proto.Failed ("timed out: " ^ what)

let health ?timeout_s ~socket () =
  match roundtrip ?timeout_s ~socket Proto.Chealth with
  | Some line -> Health.decode line
  | None | (exception Timeout _) -> None

let drain ?timeout_s ~socket () =
  match roundtrip ?timeout_s ~socket Proto.Cdrain with
  | Some line -> Health.decode line
  | None | (exception Timeout _) -> None

let ping ?timeout_s ~socket () =
  match roundtrip ?timeout_s ~socket Proto.Cping with
  | Some line -> Wire.decode_line line = Some [ "pong" ]
  | None | (exception Timeout _) -> false

(* Streaming client: open a stream, collect frames until the terminal
   [Ffinal]. [cancel_after] sends a cancel frame once that many
   statement frames have arrived (the server aborts at the next
   statement boundary, so a few more frames may still be in flight —
   the caller sees exactly what the wire carried). [on_frame] fires per
   frame in arrival order, before the frame is accumulated. *)
let stream ?timeout_s ?cancel_after ?on_frame ~socket req =
  with_conn ?timeout_s ~socket (fun fd deadline ->
      write_line fd (Proto.encode_command (Proto.Cstream req));
      let frames = ref [] in
      let nstmt = ref 0 in
      let cancelled = ref false in
      let rec go () =
        match read_bounded_line ?deadline fd with
        | `Eof -> Error "stream closed before the final frame"
        | `Oversize _ -> Error "oversize frame"
        | `Line line -> (
            match Proto.decode_frame line with
            | Proto.Malformed -> Error "unparseable frame"
            | Proto.Version_skew { got } ->
                Error (Printf.sprintf "version skew: peer v%d" got)
            | Proto.Decoded frame -> (
                Option.iter (fun f -> f frame) on_frame;
                frames := frame :: !frames;
                match frame with
                | Proto.Ffinal _ -> Ok (List.rev !frames)
                | Proto.Fstmt _ ->
                    incr nstmt;
                    (match cancel_after with
                    | Some k when (not !cancelled) && !nstmt >= k ->
                        cancelled := true;
                        write_line fd (Proto.encode_command Proto.Ccancel)
                    | _ -> ());
                    go ()))
      in
      match go () with
      | r -> r
      | exception Timeout what -> Error ("timed out: " ^ what))

(* Raw per-shard status line from a router's listener (a plain server
   answers with a typed rejection instead). Decoding lives in
   [Vega_shard.Router] — lib/serve cannot depend on lib/shard. *)
let shards ?timeout_s ~socket () =
  match roundtrip ?timeout_s ~socket Proto.Cshards with
  | (Some _ | None) as r -> r
  | exception Timeout _ -> None
