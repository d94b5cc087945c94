(* Per-connection state machine for the streaming event loop.

   A connection is pure bookkeeping: bounded read buffer accumulating
   newline-delimited command lines, bounded write queue the peer drains
   at its own pace, and a handful of tick-stamped timestamps the event
   loop uses for idle / slow-loris / backpressure deadlines. No file
   descriptors and no wall clock live here — the same machine is driven
   by the select() front-end in {!Evloop} and byte-for-byte
   deterministically by scripted clients in faultcheck, which is what
   makes chaos schedules replayable under a seed.

   Phases:

   {v
     Reading ──(command parsed, admitted, no slot)──► Admitted
        │                                                │
        │ (command parsed, slot free)                    │ (slot free)
        ▼                                                ▼
     Streaming ──(final queued / shed / cancelled)──► Draining
        │                                                │
        └──(peer reset)──► Closed ◄──(write buffer empty)┘
   v}

   Rejections that never admit (malformed line, oversize, queue-full,
   idle timeout) jump Reading → Draining directly. *)

type phase = Reading | Admitted | Streaming | Draining | Closed

type t = {
  c_id : int;
  mutable c_phase : phase;
  c_rbuf : Buffer.t;  (* partial input line, bounded by [feed ~limit] *)
  c_wq : string Queue.t;  (* encoded lines awaiting the peer *)
  mutable c_woff : int;  (* bytes of the queue head already taken *)
  mutable c_wbytes : int;  (* unsent bytes across the whole queue *)
  c_opened_at : int;  (* tick the connection was accepted *)
  mutable c_wfull_since : int option;  (* write buffer over the limit since *)
  mutable c_drain_since : int option;  (* tick [Draining] was entered *)
  mutable c_input_open : bool;  (* false after EOF / half-close *)
  mutable c_peer_gone : bool;  (* writes are pointless; discard output *)
}

let make ~id ~tick =
  {
    c_id = id;
    c_phase = Reading;
    c_rbuf = Buffer.create 128;
    c_wq = Queue.create ();
    c_woff = 0;
    c_wbytes = 0;
    c_opened_at = tick;
    c_wfull_since = None;
    c_drain_since = None;
    c_input_open = true;
    c_peer_gone = false;
  }

let id t = t.c_id
let phase t = t.c_phase
let opened_at t = t.c_opened_at
let input_open t = t.c_input_open
let peer_gone t = t.c_peer_gone
let wfull_since t = t.c_wfull_since
let set_wfull_since t v = t.c_wfull_since <- v
let drain_since t = t.c_drain_since

let set_phase t p =
  (if p = Draining && t.c_phase <> Draining then t.c_drain_since <- None);
  t.c_phase <- p

let mark_draining_at t tick = t.c_drain_since <- Some tick

(* ---- input ---- *)

(* Append [data] and extract every complete newline-terminated line.
   The residual partial line is bounded by [limit]: a peer trickling an
   endless unterminated line is reported as [`Oversize] instead of
   growing the buffer without bound. *)
let feed t ~limit data =
  Buffer.add_string t.c_rbuf data;
  let s = Buffer.contents t.c_rbuf in
  let lines = ref [] in
  let start = ref 0 in
  String.iteri
    (fun i ch ->
      if ch = '\n' then begin
        lines := String.sub s !start (i - !start) :: !lines;
        start := i + 1
      end)
    s;
  Buffer.clear t.c_rbuf;
  let rest_len = String.length s - !start in
  if rest_len > limit then `Oversize rest_len
  else begin
    Buffer.add_substring t.c_rbuf s !start rest_len;
    `Lines (List.rev !lines)
  end

let close_input t = t.c_input_open <- false

(* ---- output ---- *)

let push t line =
  if not t.c_peer_gone then begin
    Queue.add (line ^ "\n") t.c_wq;
    t.c_wbytes <- t.c_wbytes + String.length line + 1
  end

let pending t = t.c_wbytes

(* Drop queued output — but never the tail of a line the peer has
   already started reading: cutting a partially-transmitted frame would
   tear the byte stream mid-line and corrupt every frame after it. The
   head line completes; only whole untransmitted lines are shed. *)
let clear_output t =
  if t.c_woff > 0 && not (Queue.is_empty t.c_wq) then begin
    let head = Queue.peek t.c_wq in
    Queue.clear t.c_wq;
    Queue.add head t.c_wq;
    t.c_wbytes <- String.length head - t.c_woff
  end
  else begin
    Queue.clear t.c_wq;
    t.c_woff <- 0;
    t.c_wbytes <- 0
  end

(* A vanished peer reads nothing ever again — the partial head is
   unrecoverable too, so everything goes. *)
let set_peer_gone t =
  t.c_peer_gone <- true;
  Queue.clear t.c_wq;
  t.c_woff <- 0;
  t.c_wbytes <- 0

(* Non-consuming view of the next bytes to write (at most the head
   line; callers loop). *)
let output_chunk t ~max =
  if Queue.is_empty t.c_wq || max <= 0 then ""
  else begin
    let head = Queue.peek t.c_wq in
    let avail = String.length head - t.c_woff in
    String.sub head t.c_woff (min max avail)
  end

(* The peer (or the kernel) took [n] bytes off the front. *)
let consumed t n =
  let n = ref n in
  while !n > 0 && not (Queue.is_empty t.c_wq) do
    let head = Queue.peek t.c_wq in
    let avail = String.length head - t.c_woff in
    let take = min avail !n in
    t.c_woff <- t.c_woff + take;
    t.c_wbytes <- t.c_wbytes - take;
    n := !n - take;
    if t.c_woff = String.length head then begin
      ignore (Queue.pop t.c_wq);
      t.c_woff <- 0
    end
  done

(* Consume up to [max] bytes and return them — the scripted-client way
   to model a peer reading at a bounded rate. *)
let take_output t ~max =
  let buf = Buffer.create (min max 256) in
  let continue = ref true in
  while !continue && Buffer.length buf < max do
    let chunk = output_chunk t ~max:(max - Buffer.length buf) in
    if chunk = "" then continue := false
    else begin
      Buffer.add_string buf chunk;
      consumed t (String.length chunk)
    end
  done;
  Buffer.contents buf
