(* Tests for the streaming serve core: frame wire properties, the
   tick-driven event loop (admission, slot handoff, expiry while
   waiting, cancellation at statement boundaries, backpressure shed,
   slow-loris and half-close handling), journal partial-prefix
   semantics after a cancel, resume bit-identity, peer-gone hardening
   of [send_all], and the select() front-end driving real sockets. *)

module V = Vega
module R = Vega_robust
module S = Vega_serve
module Ev = S.Evloop

let target = "RISCV"
let pipeline = Test_robust.pipeline

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "vega_stream_%d_%s%d" (Unix.getpid ()) name !n)
    in
    if not (Sys.file_exists d) then Unix.mkdir d 0o755;
    d

let mk ?(client = "t") ?deadline_ms fname =
  {
    S.Proto.rq_client = client;
    rq_target = target;
    rq_fname = fname;
    rq_deadline_ms = deadline_ms;
  }

let fnames t =
  List.map
    (fun (b : V.Pipeline.bundle) -> b.V.Pipeline.spec.Vega_corpus.Spec.fname)
    t.V.Pipeline.prep.V.Pipeline.bundles

let tcfg =
  {
    S.Server.default_config with
    S.Server.client_burst = 1000.0;
    client_rate = 0.0;
  }

let mk_server ?run_dir ?resume ?decoder () =
  let t = Lazy.force pipeline in
  let decoder =
    match decoder with
    | Some d -> d
    | None -> V.Pipeline.retrieval_decoder t
  in
  match S.Server.create ~config:tcfg ?run_dir ?resume t ~target ~decoder with
  | Error e -> Alcotest.failf "server create failed: %s" e
  | Ok srv -> srv

(* engine config tuned for scripted tests: one statement boundary per
   tick so schedules are easy to reason about *)
let ecfg =
  {
    Ev.default_config with
    Ev.ev_slots = 2;
    ev_steps_per_tick = 1;
    ev_idle_ticks = 50;
    ev_stall_ticks = 2;
    ev_wbuf_limit = 256;
  }

(* ---------------- scripted-client driver ---------------- *)

(* Tick the engine while reading this connection at [read_budget] bytes
   per tick, decoding frames as they arrive. [on_stmt] fires after the
   n-th statement frame (1-based) — the hook cancel/half-close scripts
   use. Returns (statement frame indexes in arrival order, final reply
   if one arrived). *)
let drive ?(max_ticks = 5_000) ?(read_budget = max_int) ?on_stmt e id =
  let stmts = ref [] in
  let final = ref None in
  let nstmt = ref 0 in
  let buf = Buffer.create 256 in
  let ticks = ref 0 in
  while !final = None && !ticks < max_ticks && Ev.conn_phase e id <> None do
    incr ticks;
    Ev.tick e;
    Buffer.add_string buf (Ev.take_output e id ~max:read_budget);
    let s = Buffer.contents buf in
    Buffer.clear buf;
    let rec go = function
      | [] -> ()
      | [ partial ] -> Buffer.add_string buf partial
      | line :: rest ->
          (match S.Proto.decode_frame line with
          | S.Proto.Decoded (S.Proto.Fstmt { f_index; _ }) ->
              stmts := f_index :: !stmts;
              incr nstmt;
              Option.iter (fun cb -> cb !nstmt) on_stmt
          | S.Proto.Decoded (S.Proto.Ffinal r) -> final := Some r
          | S.Proto.Version_skew _ | S.Proto.Malformed ->
              Alcotest.failf "unparseable frame: %s" line);
          go rest
    in
    go (String.split_on_char '\n' s);
    ignore (Ev.reap e)
  done;
  (List.rev !stmts, !final)

(* Let the engine quiesce (flush drains, reap closed connections). *)
let settle ?(ticks = 10) e =
  for _ = 1 to ticks do
    Ev.tick e;
    ignore (Ev.reap e)
  done

let open_stream e fname =
  match Ev.open_conn e with
  | None -> Alcotest.fail "engine refused a connection"
  | Some id ->
      Ev.feed e id (S.Proto.encode_command (S.Proto.Cstream (mk fname)) ^ "\n");
      id

let expect_final = function
  | Some r -> r
  | None -> Alcotest.fail "stream ended without a final frame"

(* Count a function's statements by streaming it once on a throwaway
   engine. *)
let stmt_count fname =
  let srv = mk_server () in
  let e = Ev.create ~cfg:ecfg srv in
  let id = open_stream e fname in
  let stmts, final = drive e id in
  (match expect_final final with
  | S.Proto.Done _ -> ()
  | r -> Alcotest.failf "count stream failed: %s" (S.Proto.encode_reply r));
  S.Server.drain srv;
  List.length stmts

(* Corpus functions sorted by statement count, busiest first — chaos
   tests want room to cancel mid-flight. *)
let counted_fnames =
  lazy
    (let t = Lazy.force pipeline in
     let counted = List.map (fun f -> (stmt_count f, f)) (fnames t) in
     List.sort (fun a b -> compare b a) counted)

let busiest_fname =
  lazy
    (let n, f = List.hd (Lazy.force counted_fnames) in
     Alcotest.(check bool) "a multi-statement function exists" true (n >= 2);
     (n, f))

(* A second function, distinct from the busiest — for tests that need a
   fresh (never-decoded) fname after the busiest one is already cached. *)
let second_fname =
  lazy
    (match Lazy.force counted_fnames with
    | _ :: (n, f) :: _ ->
        Alcotest.(check bool) "a second function exists" true (n >= 1);
        f
    | _ -> Alcotest.fail "corpus has fewer than two functions")

(* ---------------- frame wire properties ---------------- *)

let gen_frame =
  let open QCheck.Gen in
  let token = string_size ~gen:printable (int_range 0 10) in
  let stmt =
    map
      (fun (i, level, score, ok, toks) ->
        S.Proto.Fstmt
          {
            f_index = i;
            f_level = level;
            f_score = score;
            f_shape_ok = ok;
            f_tokens = toks;
          })
      (tup5 (int_range 0 1000)
         (oneofl [ "primary"; "conservative"; "template"; "omitted" ])
         float bool
         (list_size (int_range 0 5) token))
  in
  let final =
    oneofl
      [
        S.Proto.Ffinal
          (S.Proto.Done
             {
               r_fname = "f";
               r_target = "RISCV";
               r_confidence = 0.5;
               r_degraded = 1;
               r_resumed = false;
               r_source = "decoder";
             });
        S.Proto.Ffinal (S.Proto.Failed "boom");
        S.Proto.Ffinal (S.Proto.Rejected (S.Proto.Cancelled { at_stmt = 3 }));
        S.Proto.Ffinal
          (S.Proto.Rejected
             (S.Proto.Slow_reader { buffered = 9000; limit = 4096 }));
        S.Proto.Ffinal (S.Proto.Rejected (S.Proto.Idle_timeout { ticks = 7 }));
        S.Proto.Ffinal
          (S.Proto.Rejected (S.Proto.Queue_full { depth = 3; cap = 3 }));
      ]
  in
  frequency [ (4, stmt); (1, final) ]

(* [compare] (unlike [=]) treats nan as equal to itself, which is what
   a round-trip through the hex-float wire encoding preserves. *)
let frame_eq (a : S.Proto.frame) b = compare a b = 0

let test_frame_roundtrip =
  QCheck.Test.make ~count:500 ~name:"frame encode/decode round-trips"
    (QCheck.make gen_frame) (fun frame ->
      match S.Proto.decode_frame (S.Proto.encode_frame frame) with
      | S.Proto.Decoded got -> frame_eq frame got
      | S.Proto.Version_skew _ | S.Proto.Malformed -> false)

(* Truncations, corruptions and junk must decode to a typed error —
   never raise. *)
let test_frame_truncation =
  QCheck.Test.make ~count:500
    ~name:"truncated/corrupt frames are typed errors, not exceptions"
    QCheck.(pair (make gen_frame) (pair small_nat small_string))
    (fun (frame, (cut, junk)) ->
      let line = S.Proto.encode_frame frame in
      let truncated = String.sub line 0 (min cut (String.length line)) in
      let corrupted =
        if String.length line = 0 then line
        else
          String.mapi
            (fun i c ->
              if i = cut mod String.length line then
                Char.chr (Char.code c lxor 0x01)
              else c)
            line
      in
      let typed input =
        match S.Proto.decode_frame input with
        | S.Proto.Decoded _ | S.Proto.Version_skew _ | S.Proto.Malformed ->
            true
        | exception _ -> false
      in
      (* a strict prefix can never pass the checksum *)
      let prefix_rejected =
        String.length truncated = String.length line
        ||
        match S.Proto.decode_frame truncated with
        | S.Proto.Malformed | S.Proto.Version_skew _ -> true
        | S.Proto.Decoded _ -> false
      in
      typed truncated && typed corrupted && typed junk && prefix_rejected)

(* ---------------- engine: basic streaming ---------------- *)

let test_stream_basic () =
  let srv = mk_server () in
  let e = Ev.create ~cfg:ecfg srv in
  let _, fname = Lazy.force busiest_fname in
  let id = open_stream e fname in
  let stmts, final = drive e id in
  (* frames arrive indexed, in order, then the final verdict *)
  List.iteri
    (fun i idx -> Alcotest.(check int) "frame indexes in order" i idx)
    stmts;
  let reply = expect_final final in
  (match reply with
  | S.Proto.Done d ->
      Alcotest.(check string) "final names the function" fname d.r_fname
  | r -> Alcotest.failf "stream failed: %s" (S.Proto.encode_reply r));
  (* the streamed verdict matches the blocking path bit-for-bit *)
  let reference = S.Server.request srv (mk fname) in
  Alcotest.(check bool) "streamed final = blocking reply" true
    (reply = reference);
  settle e;
  Alcotest.(check bool) "connection reaped, engine idle" true (Ev.idle e);
  let h = S.Server.health srv in
  Alcotest.(check int) "journal lag settled" 0 h.S.Health.h_journal_lag;
  S.Server.drain srv

(* A plain [Creq] rides the same engine and answers with the classic
   single reply line. *)
let test_plain_request_on_engine () =
  let srv = mk_server () in
  let e = Ev.create ~cfg:ecfg srv in
  let t = Lazy.force pipeline in
  let fname = List.hd (fnames t) in
  match Ev.open_conn e with
  | None -> Alcotest.fail "engine refused a connection"
  | Some id ->
      Ev.feed e id (S.Proto.encode_command (S.Proto.Creq (mk fname)) ^ "\n");
      let buf = Buffer.create 256 in
      let ticks = ref 0 in
      while
        (not (String.contains (Buffer.contents buf) '\n')) && !ticks < 1000
      do
        incr ticks;
        Ev.tick e;
        Buffer.add_string buf (Ev.take_output e id ~max:max_int)
      done;
      let line = List.hd (String.split_on_char '\n' (Buffer.contents buf)) in
      (match S.Proto.decode_reply line with
      | S.Proto.Decoded (S.Proto.Done d) ->
          Alcotest.(check string) "plain reply" fname d.r_fname
      | _ -> Alcotest.failf "expected a Done reply line, got: %s" line);
      settle e;
      S.Server.drain srv

(* ---------------- cancellation at statement boundaries ---------------- *)

(* Cancel after [k] statement frames; prove the decode aborted at a
   nearby boundary, the slot freed, the decoder stopped being called,
   and the journal holds exactly the partial prefix with no seal. *)
let cancel_at k ~total =
  let t = Lazy.force pipeline in
  let base = V.Pipeline.retrieval_decoder t in
  let calls = ref 0 in
  let decoder fv =
    incr calls;
    base fv
  in
  let dir = fresh_dir "cancel" in
  let srv = mk_server ~run_dir:dir ~decoder () in
  let e = Ev.create ~cfg:ecfg srv in
  let _, fname = Lazy.force busiest_fname in
  let cancel_line = S.Proto.encode_command S.Proto.Ccancel in
  let id = open_stream e fname in
  (* k = 0: cancel before any statement frame, right behind the request *)
  if k = 0 then Ev.feed e id (cancel_line ^ "\n");
  let on_stmt n = if n = k then Ev.feed e id (cancel_line ^ "\n") in
  let stmts, final = drive ~on_stmt e id in
  let at_stmt =
    match expect_final final with
    | S.Proto.Rejected (S.Proto.Cancelled { at_stmt }) -> at_stmt
    | r -> Alcotest.failf "expected cancelled, got: %s" (S.Proto.encode_reply r)
  in
  (* aborted at a statement boundary at or just past the cancel point,
     strictly before the end *)
  Alcotest.(check bool) "aborted at a nearby boundary" true
    (at_stmt >= k && at_stmt <= k + 2 && at_stmt < total);
  Alcotest.(check int) "every decoded statement was framed" at_stmt
    (List.length stmts);
  Alcotest.(check bool) "decoder stopped early" true (!calls <= at_stmt + 1);
  (* the slot freed and the accounting settled *)
  settle e;
  let h = S.Server.health srv in
  Alcotest.(check int) "slot freed" 0 h.S.Health.h_busy;
  Alcotest.(check int) "cancel counted" 1 h.S.Health.h_cancelled;
  Alcotest.(check int) "journal lag settled after cancel" 0
    h.S.Health.h_journal_lag;
  S.Server.drain srv;
  (* journal: Func_begin + exactly the partial statement prefix, no
     Func_end seal — replay drops the function *)
  let recovery = R.Journal.read ~path:(V.Pipeline.journal_path dir) () in
  let begins, seals, stmts_j =
    List.fold_left
      (fun (b, s, n) -> function
        | R.Journal.Func_begin f when f = fname -> (b + 1, s, n)
        | R.Journal.Func_end { fname = f; _ } when f = fname -> (b, s + 1, n)
        | R.Journal.Stmt st when st.R.Journal.j_fname = fname -> (b, s, n + 1)
        | _ -> (b, s, n))
      (0, 0, 0) recovery.R.Journal.r_records
  in
  Alcotest.(check int) "one Func_begin journaled" 1 begins;
  Alcotest.(check int) "no Func_end seal" 0 seals;
  Alcotest.(check int) "journal holds the partial prefix" at_stmt stmts_j;
  let _, completed = R.Journal.replay recovery.R.Journal.r_records in
  Alcotest.(check int) "replay drops the cancelled function" 0
    (List.length completed)

let test_cancel_boundaries () =
  let total, _ = Lazy.force busiest_fname in
  (* first, middle, last statement boundary *)
  cancel_at 0 ~total;
  if total >= 3 then cancel_at (total / 2) ~total;
  cancel_at (total - 1) ~total

(* Resume after a cancel regenerates exactly the cancelled work,
   bit-identical to a fresh run. *)
let test_cancel_then_resume_bit_identity () =
  let t = Lazy.force pipeline in
  let names = fnames t in
  let done_f = List.hd names in
  let _, cancel_f = Lazy.force busiest_fname in
  let done_f = if done_f = cancel_f then List.nth names 1 else done_f in
  (* reference: both functions on an ephemeral server *)
  let expect =
    let srv = mk_server () in
    List.iter
      (fun f ->
        match S.Server.request srv (mk f) with
        | S.Proto.Done _ -> ()
        | r -> Alcotest.failf "reference failed: %s" (S.Proto.encode_reply r))
      [ done_f; cancel_f ];
    let r =
      Test_durable.render
        (List.filter
           (fun (gf : V.Generate.gen_func) ->
             List.mem gf.V.Generate.gf_fname [ done_f; cancel_f ])
           (S.Server.functions srv))
    in
    S.Server.drain srv;
    r
  in
  let dir = fresh_dir "resume" in
  (let srv = mk_server ~run_dir:dir () in
   let e = Ev.create ~cfg:ecfg srv in
   (* one completed stream, one cancelled mid-decode *)
   let id1 = open_stream e done_f in
   (match expect_final (snd (drive e id1)) with
   | S.Proto.Done _ -> ()
   | r -> Alcotest.failf "first stream failed: %s" (S.Proto.encode_reply r));
   let id2 = open_stream e cancel_f in
   let cancel_line = S.Proto.encode_command S.Proto.Ccancel in
   let on_stmt n = if n = 1 then Ev.feed e id2 (cancel_line ^ "\n") in
   (match expect_final (snd (drive ~on_stmt e id2)) with
   | S.Proto.Rejected (S.Proto.Cancelled _) -> ()
   | r -> Alcotest.failf "expected cancelled: %s" (S.Proto.encode_reply r));
   settle e;
   S.Server.drain srv);
  (* resume: only the sealed function restores; the cancelled one
     regenerates and the result is bit-identical to the fresh run *)
  let srv = mk_server ~run_dir:dir ~resume:true () in
  Alcotest.(check int) "only the sealed function restored" 1
    (S.Server.resumed_functions srv);
  (match S.Server.request srv (mk cancel_f) with
  | S.Proto.Done d ->
      Alcotest.(check bool) "regenerated, not restored" false d.r_resumed
  | r -> Alcotest.failf "regenerate failed: %s" (S.Proto.encode_reply r));
  let got =
    Test_durable.render
      (List.filter
         (fun (gf : V.Generate.gen_func) ->
           List.mem gf.V.Generate.gf_fname [ done_f; cancel_f ])
         (S.Server.functions srv))
  in
  Alcotest.(check string) "resume-after-cancel bit-identical" expect got;
  S.Server.drain srv

(* ---------------- backpressure and deadlines ---------------- *)

(* A reader that stops draining is shed with a typed [Slow_reader]
   final; the loop and the other connections keep going. *)
let test_slow_reader_shed () =
  let srv = mk_server () in
  let cfg = { ecfg with Ev.ev_wbuf_limit = 1; ev_stall_ticks = 1 } in
  let e = Ev.create ~cfg srv in
  let _, fname = Lazy.force busiest_fname in
  let id = open_stream e fname in
  (* never read: the write buffer fills and stays full *)
  let ticks = ref 0 in
  while (Ev.stats e).Ev.ev_shed_slow = 0 && !ticks < 50 do
    incr ticks;
    Ev.tick e
  done;
  Alcotest.(check int) "one slow-reader shed" 1 (Ev.stats e).Ev.ev_shed_slow;
  (* the peer wakes up (before the drain-drop deadline) and finds only
     the typed rejection — the queued frames were dropped with it *)
  let out = Ev.take_output e id ~max:max_int in
  let finals =
    List.filter_map
      (fun line ->
        match S.Proto.decode_frame line with
        | S.Proto.Decoded (S.Proto.Ffinal r) -> Some r
        | _ -> None)
      (String.split_on_char '\n' out)
  in
  (match finals with
  | [ S.Proto.Rejected (S.Proto.Slow_reader { limit = 1; _ }) ] -> ()
  | _ -> Alcotest.failf "expected exactly one Slow_reader final, got: %s" out);
  settle e;
  Alcotest.(check bool) "engine idle after shed" true (Ev.idle e);
  let h = S.Server.health srv in
  Alcotest.(check int) "no journal-lag drift after shed" 0
    h.S.Health.h_journal_lag;
  S.Server.drain srv

(* A connection that never completes a command line — silent or
   trickling bytes (slow loris) — is shed on the tick clock. *)
let test_idle_and_slow_loris_shed () =
  let srv = mk_server () in
  (* generous stall budget: the shed final must survive until the
     scripted peer reads it *)
  let cfg = { ecfg with Ev.ev_idle_ticks = 5; ev_stall_ticks = 100 } in
  let e = Ev.create ~cfg srv in
  let silent = Option.get (Ev.open_conn e) in
  let loris = Option.get (Ev.open_conn e) in
  for _ = 1 to 8 do
    (* the loris trickles one byte per tick and never finishes *)
    Ev.feed e loris "x";
    Ev.tick e;
    ignore (Ev.reap e)
  done;
  Alcotest.(check int) "both connections shed" 2 (Ev.stats e).Ev.ev_idle_closed;
  List.iter
    (fun id ->
      let out = Ev.take_output e id ~max:max_int in
      let line = List.hd (String.split_on_char '\n' out) in
      match S.Proto.decode_reply line with
      | S.Proto.Decoded (S.Proto.Rejected (S.Proto.Idle_timeout { ticks = 5 }))
        ->
          ()
      | _ -> Alcotest.failf "expected Idle_timeout, got: %s" line)
    [ silent; loris ];
  settle e;
  Alcotest.(check bool) "engine idle after sheds" true (Ev.idle e);
  S.Server.drain srv

(* slots=1: the second stream waits, takes the freed slot after the
   first is cancelled, and completes; past the wait cap sheds typed. *)
let test_slot_handoff_and_queue_full () =
  let t = Lazy.force pipeline in
  let names = fnames t in
  let srv = mk_server () in
  let cfg = { ecfg with Ev.ev_slots = 1; ev_wait_cap = 1 } in
  let e = Ev.create ~cfg srv in
  let _, busy = Lazy.force busiest_fname in
  let other =
    List.hd (List.filter (fun f -> f <> busy) names)
  in
  let third = List.hd (List.filter (fun f -> f <> busy && f <> other) names) in
  let id1 = open_stream e busy in
  Ev.tick e;
  (* slot taken *)
  let id2 = open_stream e other in
  let id3 = open_stream e third in
  (* the third admission overflows the wait queue: typed, immediate *)
  let _, final3 = drive ~max_ticks:5 e id3 in
  (match final3 with
  | Some (S.Proto.Rejected (S.Proto.Queue_full { cap = 1; _ })) -> ()
  | Some r -> Alcotest.failf "expected Queue_full: %s" (S.Proto.encode_reply r)
  | None -> Alcotest.fail "no queue-full final");
  (* cancel the slot holder: the waiter inherits the slot and finishes *)
  Ev.feed e id1 (S.Proto.encode_command S.Proto.Ccancel ^ "\n");
  (match expect_final (snd (drive e id1)) with
  | S.Proto.Rejected (S.Proto.Cancelled _) -> ()
  | r -> Alcotest.failf "expected cancelled: %s" (S.Proto.encode_reply r));
  (match expect_final (snd (drive e id2)) with
  | S.Proto.Done d ->
      Alcotest.(check string) "waiter completed on the freed slot" other
        d.r_fname
  | r -> Alcotest.failf "waiter failed: %s" (S.Proto.encode_reply r));
  settle e;
  let h = S.Server.health srv in
  Alcotest.(check bool) "all settled: lag 0, nothing lost" true
    (h.S.Health.h_journal_lag = 0 && h.S.Health.h_busy = 0);
  S.Server.drain srv

(* Health and drain replies carry the loop's own queue: its waiting
   streams, wait cap, busy slots and slot count, not the server's. *)
let test_loop_health () =
  let t = Lazy.force pipeline in
  let srv = mk_server () in
  let e = Ev.create ~cfg:{ ecfg with Ev.ev_slots = 1; ev_wait_cap = 8 } srv in
  let ids =
    List.map (open_stream e) (List.filteri (fun i _ -> i < 3) (fnames t))
  in
  let ask cmd =
    match Ev.open_conn e with
    | None -> Alcotest.fail "engine refused a connection"
    | Some id ->
        Ev.feed e id (S.Proto.encode_command cmd ^ "\n");
        id
  in
  let reply id =
    let out = Ev.take_output e id ~max:max_int in
    let line = List.hd (String.split_on_char '\n' out) in
    match S.Health.decode line with
    | Some h -> h
    | None -> Alcotest.failf "not a health line: %S" line
  in
  let queue h =
    S.Health.[ h.h_queue_depth; h.h_queue_cap; h.h_busy; h.h_domains ]
  in
  Alcotest.(check (list int)) "2 of 8 waiting, 1 busy, 1 slot" [ 2; 8; 1; 1 ]
    (queue (reply (ask S.Proto.Chealth)));
  let drain = ask S.Proto.Cdrain in
  List.iter
    (fun id ->
      match expect_final (snd (drive e id)) with
      | S.Proto.Done _ -> ()
      | r -> Alcotest.failf "stream failed: %s" (S.Proto.encode_reply r))
    ids;
  let h = reply drain in
  Alcotest.(check (list int)) "drained: none waiting, none busy" [ 0; 8; 0; 1 ]
    (queue h);
  Alcotest.(check bool) "drained state" true
    (h.S.Health.h_state = S.Health.Stopped)

(* A stream that waits for a slot past its deadline is expired when the
   slot comes: typed [Expired], no decode, no journal trace. The clock
   is virtual and the decoder advances it, as in faultcheck's
   serve-deadline scenario. *)
let test_expired_waiting_for_slot () =
  let t = Lazy.force pipeline in
  let base = V.Pipeline.retrieval_decoder t in
  let now = ref 0.0 in
  let calls = ref 0 in
  let counted d fv =
    incr calls;
    d fv
  in
  let inj = R.Inject.create ~seed:13 ~every:1 R.Inject.Decoder_stall in
  let stalling =
    R.Inject.wrap_stalling_decoder inj
      ~stall:(fun () -> now := !now +. 1.0)
      base
  in
  let dir = fresh_dir "expire" in
  let srv =
    match
      S.Server.create
        ~config:{ tcfg with S.Server.deadline_ms = 50 }
        ~run_dir:dir
        ~now:(fun () -> !now)
        ~sleep:(fun d -> now := !now +. d)
        ~fallback:(counted base) t ~target ~decoder:(counted stalling)
    with
    | Error e -> Alcotest.failf "server create failed: %s" e
    | Ok srv -> srv
  in
  let e = Ev.create ~cfg:{ ecfg with Ev.ev_slots = 1 } srv in
  let first, waiting =
    match fnames t with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "corpus has fewer than two functions"
  in
  let id1 = open_stream e first in
  let id2 = open_stream e waiting in
  (match expect_final (snd (drive e id1)) with
  | S.Proto.Done _ -> ()
  | r -> Alcotest.failf "slot holder failed: %s" (S.Proto.encode_reply r));
  let calls_before = !calls in
  (match expect_final (snd (drive e id2)) with
  | S.Proto.Rejected (S.Proto.Expired { waited_ms }) ->
      Alcotest.(check bool) "waited at least the deadline" true
        (waited_ms >= 50)
  | r -> Alcotest.failf "expected expiry, got %s" (S.Proto.encode_reply r));
  Alcotest.(check int) "the expired request never decoded" calls_before !calls;
  settle e;
  let h = S.Server.health srv in
  Alcotest.(check int) "accepted - completed settles to 0" 0
    (h.S.Health.h_accepted - h.S.Health.h_completed);
  S.Server.drain srv;
  let recovery = R.Journal.read ~path:(V.Pipeline.journal_path dir) () in
  Alcotest.(check bool) "the expired request journaled no Func_begin" false
    (List.exists
       (function R.Journal.Func_begin f -> f = waiting | _ -> false)
       recovery.R.Journal.r_records)

(* Drain lets in-flight work finish. With one slot, one stream decoding
   and one waiting: a request arriving meanwhile is rejected as
   Draining, the drain reply waits for both streams, and the service
   drains only after them, so its journal seals both. *)
let test_drain_waits_for_streams () =
  let t = Lazy.force pipeline in
  let dir = fresh_dir "drain_wait" in
  let srv = mk_server ~run_dir:dir () in
  let e = Ev.create ~cfg:{ ecfg with Ev.ev_slots = 1 } srv in
  let _, busy = Lazy.force busiest_fname in
  let other = Lazy.force second_fname in
  let late_fname = List.find (fun f -> f <> busy && f <> other) (fnames t) in
  let command cmd =
    match Ev.open_conn e with
    | None -> Alcotest.fail "engine refused a connection"
    | Some id ->
        Ev.feed e id (S.Proto.encode_command cmd ^ "\n");
        id
  in
  let a = open_stream e busy in
  let b = open_stream e other in
  (* opened before the drain: a new connection would be refused *)
  let late = Option.get (Ev.open_conn e) in
  let d = command S.Proto.Cdrain in
  Ev.feed e late (S.Proto.encode_command (S.Proto.Creq (mk late_fname)) ^ "\n");
  (match
     S.Proto.decode_reply (String.trim (Ev.take_output e late ~max:max_int))
   with
  | S.Proto.Decoded (S.Proto.Rejected S.Proto.Draining) -> ()
  | _ -> Alcotest.fail "a request during drain must be rejected as Draining");
  let done_ id =
    match expect_final (snd (drive e id)) with
    | S.Proto.Done _ -> ()
    | r -> Alcotest.failf "in-flight stream lost: %s" (S.Proto.encode_reply r)
  in
  Alcotest.(check int) "no drain reply while a stream decodes" 0
    (Ev.pending_output e d);
  done_ a;
  Alcotest.(check int) "no drain reply while a stream waits" 0
    (Ev.pending_output e d);
  done_ b;
  (match S.Health.decode (String.trim (Ev.take_output e d ~max:max_int)) with
  | Some h ->
      Alcotest.(check bool) "drained after both streams" true
        (h.S.Health.h_state = S.Health.Stopped
        && h.S.Health.h_completed = 2
        && h.S.Health.h_journal_lag = 0)
  | None -> Alcotest.fail "no drain reply");
  settle e;
  Alcotest.(check bool) "engine stopped" true (Ev.stopped e);
  Alcotest.(check (list string)) "the drained journal seals both functions"
    (List.sort compare [ busy; other ])
    (Vega_chaos.Ctx.sealed dir)

(* ---------------- peer-fault chaos (scripted) ---------------- *)

(* Half-close mid-stream: EOF propagates as a cancellation; the typed
   final still goes out (the peer may still be reading). *)
let test_half_close_cancels () =
  let srv = mk_server () in
  let e = Ev.create ~cfg:ecfg srv in
  let _, fname = Lazy.force busiest_fname in
  let id = open_stream e fname in
  let on_stmt n = if n = 1 then Ev.close_input e id in
  let _, final = drive ~on_stmt e id in
  (match expect_final final with
  | S.Proto.Rejected (S.Proto.Cancelled { at_stmt }) ->
      Alcotest.(check bool) "aborted near the half-close" true (at_stmt >= 1)
  | r -> Alcotest.failf "expected cancelled: %s" (S.Proto.encode_reply r));
  settle e;
  let h = S.Server.health srv in
  Alcotest.(check bool) "half-close settled: slot freed, lag 0" true
    (h.S.Health.h_busy = 0
    && h.S.Health.h_cancelled = 1
    && h.S.Health.h_journal_lag = 0);
  S.Server.drain srv

(* Hard reset mid-stream: output is discarded, the decode is cancelled,
   nothing leaks and nothing is double-decoded. *)
let test_peer_reset_cleans_up () =
  let srv = mk_server () in
  let e = Ev.create ~cfg:ecfg srv in
  let _, fname = Lazy.force busiest_fname in
  let id = open_stream e fname in
  let reset = ref false in
  let on_stmt n =
    if n = 1 then begin
      reset := true;
      Ev.peer_reset e id
    end
  in
  let _, final = drive ~max_ticks:100 ~on_stmt e id in
  Alcotest.(check bool) "reset happened" true !reset;
  Alcotest.(check bool) "no final reaches a reset peer" true (final = None);
  settle e;
  Alcotest.(check bool) "engine idle after reset" true (Ev.idle e);
  let h = S.Server.health srv in
  Alcotest.(check bool) "reset settled: slot freed, cancel counted" true
    (h.S.Health.h_busy = 0
    && h.S.Health.h_cancelled = 1
    && h.S.Health.h_journal_lag = 0);
  S.Server.drain srv

(* ---------------- send_all peer-gone hardening ---------------- *)

let test_send_all_peer_gone () =
  (* close the read side outright: the second write lands EPIPE, which
     must surface as the typed outcome, not an exception *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close b;
  let line = String.make 4096 'x' in
  let rec poke n =
    if n = 0 then Alcotest.fail "writes to a closed peer kept succeeding"
    else
      match S.Sock.send_all a line with
      | S.Sock.Peer_gone -> ()
      | S.Sock.Wrote -> poke (n - 1)
  in
  poke 64;
  Unix.close a;
  (* half-close: the peer shut down reading but the socket lives; the
     kernel buffer absorbs writes until it cannot, then EPIPE again *)
  let c, d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.shutdown d Unix.SHUTDOWN_ALL;
  let rec poke2 n =
    if n = 0 then Alcotest.fail "writes after half-close kept succeeding"
    else
      match S.Sock.send_all c line with
      | S.Sock.Peer_gone -> ()
      | S.Sock.Wrote -> poke2 (n - 1)
  in
  poke2 64;
  Unix.close c;
  Unix.close d

(* ---------------- determinism ---------------- *)

(* The same scripted chaos schedule, run twice against fresh servers,
   must produce byte-identical decision/event logs and outputs. *)
let test_schedule_replays_byte_identically () =
  let t = Lazy.force pipeline in
  let names = fnames t in
  let _, busy = Lazy.force busiest_fname in
  let run () =
    let srv = mk_server () in
    let cfg = { ecfg with Ev.ev_slots = 1; ev_wbuf_limit = 1; ev_stall_ticks = 3 } in
    let e = Ev.create ~cfg srv in
    let outputs = Buffer.create 256 in
    (* conn 0 streams and is cancelled at its first statement; conn 1
       streams and never reads (shed); conn 2 waits, then completes *)
    let id0 = open_stream e busy in
    let id1 = open_stream e busy in
    let id2 = open_stream e (List.hd (List.filter (fun f -> f <> busy) names)) in
    let cancel_line = S.Proto.encode_command S.Proto.Ccancel in
    let on_stmt n = if n = 1 then Ev.feed e id0 (cancel_line ^ "\n") in
    let _, _ = drive ~max_ticks:500 ~on_stmt e id0 in
    for _ = 1 to 100 do
      Ev.tick e;
      ignore (Ev.reap e)
    done;
    Buffer.add_string outputs (Ev.take_output e id1 ~max:max_int);
    Buffer.add_string outputs (Ev.take_output e id2 ~max:max_int);
    settle e ~ticks:50;
    let log = Ev.log e in
    S.Server.drain srv;
    (log, Buffer.contents outputs)
  in
  let log1, out1 = run () in
  let log2, out2 = run () in
  Alcotest.(check string) "decision/event logs byte-identical" log1 log2;
  Alcotest.(check string) "wire outputs byte-identical" out1 out2

(* The 256-connection storm on 8 slots, one statement boundary per tick
   and a 64 B write limit: client 0 streams the busiest function and
   cancels after its first frame, client 1 reads the same function one
   byte per tick. [run_chaos] fails on an unparseable frame or a
   schedule that does not converge; every connection must get its
   final, the cancel must free its slot within 2 statement boundaries
   of the first frame, and no slot may stay busy. *)
let test_storm_256_connections () =
  let module C = Vega_chaos.Streaming in
  let names = Array.of_list (fnames (Lazy.force pipeline)) in
  let _, busy = Lazy.force busiest_fname in
  let conns = 256 in
  let cfg =
    {
      Ev.ev_slots = 8;
      ev_wait_cap = conns + 8;
      ev_steps_per_tick = 1;
      ev_idle_ticks = 100_000;
      ev_stall_ticks = 4;
      ev_wbuf_limit = 64;
      ev_max_conns = conns + 8;
    }
  in
  let srv = mk_server () in
  let e = Ev.create ~cfg srv in
  let clients =
    List.init conns (function
      | 0 -> { (C.chaos_plain busy) with C.cc_cancel_at = Some 1 }
      | 1 -> C.chaos_plain ~budget:1 busy
      | i -> C.chaos_plain names.(i mod Array.length names))
  in
  let res = C.run_chaos e ~target clients in
  let busy_slots = (Ev.health e).S.Health.h_busy in
  S.Server.drain srv;
  let final i = (List.nth res i).C.cr_final in
  let verdict = function
    | None -> "no final"
    | Some (S.Proto.Done _) -> "done"
    | Some (S.Proto.Failed _) -> "failed"
    | Some (S.Proto.Rejected r) -> S.Proto.reject_label r
  in
  Alcotest.(check int) "every connection answered" conns
    (List.length (List.filter (fun r -> r.C.cr_final <> None) res));
  (match final 0 with
  | Some (S.Proto.Rejected (S.Proto.Cancelled { at_stmt })) when at_stmt <= 3
    ->
      ()
  | r ->
      Alcotest.failf "cancel client: %s, want cancelled at statement <= 3"
        (verdict r));
  (match final 1 with
  | Some (S.Proto.Rejected (S.Proto.Slow_reader _)) -> ()
  | r -> Alcotest.failf "1 B/tick client: %s, want slow-reader" (verdict r));
  Alcotest.(check int) "no slot busy after the storm" 0 busy_slots

(* ---------------- select() front-end (real sockets) ---------------- *)

let sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vega_ev%d_%d.sock" (Unix.getpid ()) !n)

let live_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_evloop_socket_end_to_end () =
  let fds_before = live_fds () in
  let srv = mk_server () in
  let socket = sock_path () in
  let cfg = { Ev.default_config with Ev.ev_steps_per_tick = 1 } in
  let h = Ev.start ~cfg ~tick_s:0.002 srv ~path:socket in
  Alcotest.(check bool) "pings over the event loop" true
    (S.Sock.ping ~socket ());
  let _, busy = Lazy.force busiest_fname in
  let fname = Lazy.force second_fname in
  (* streamed first, while the fname is still fresh: statement frames
     then the final, in order (a cached fname would replay final-only) *)
  (match S.Sock.stream ~socket (mk fname) with
  | Error e -> Alcotest.failf "stream failed: %s" e
  | Ok frames -> (
      let stmts, finals =
        List.partition
          (function S.Proto.Fstmt _ -> true | S.Proto.Ffinal _ -> false)
          frames
      in
      Alcotest.(check bool) "streamed statements arrived" true
        (List.length stmts >= 1);
      List.iteri
        (fun i f ->
          match f with
          | S.Proto.Fstmt { f_index; _ } ->
              Alcotest.(check int) "socket frames in order" i f_index
          | S.Proto.Ffinal _ -> ())
        stmts;
      match finals with
      | [ S.Proto.Ffinal (S.Proto.Done d) ] ->
          Alcotest.(check string) "final over socket" fname d.r_fname
      | _ -> Alcotest.fail "expected exactly one Done final"));
  (* plain request parity — now served from the completed table *)
  (match S.Sock.request ~socket (mk fname) with
  | S.Proto.Done d -> Alcotest.(check string) "plain req" fname d.r_fname
  | r -> Alcotest.failf "plain request failed: %s" (S.Proto.encode_reply r));
  (* cancelled mid-decode over the wire: typed final. Uses the busiest
     (still uncached) fname so the decode has room to be cancelled. *)
  (match S.Sock.stream ~socket ~cancel_after:1 (mk busy) with
  | Error e -> Alcotest.failf "cancel stream failed: %s" e
  | Ok frames -> (
      match List.rev frames with
      | S.Proto.Ffinal (S.Proto.Rejected (S.Proto.Cancelled { at_stmt })) :: _
        ->
          Alcotest.(check bool) "aborted at a bounded boundary" true
            (at_stmt >= 1)
      | S.Proto.Ffinal r :: _ ->
          Alcotest.failf "expected cancelled final: %s" (S.Proto.encode_reply r)
      | _ -> Alcotest.fail "no final frame"));
  (* health and drain over the same loop *)
  (match S.Sock.health ~socket () with
  | Some hs ->
      Alcotest.(check int) "cancel visible in health" 1 hs.S.Health.h_cancelled
  | None -> Alcotest.fail "no health over the event loop");
  (match S.Sock.drain ~socket () with
  | Some hs ->
      Alcotest.(check bool) "drained" true
        (hs.S.Health.h_state = S.Health.Stopped)
  | None -> Alcotest.fail "no drain reply");
  Ev.wait h;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket);
  Alcotest.(check int) "no file descriptors leaked" fds_before (live_fds ())

(* The same drain over a real socket: one stream decoding, one waiting
   for the only slot, then [drain]. Both end Done, the daemon exits
   without an exception, and the journal seals both functions.
   [start] puts the journaled server behind a socket daemon, directly
   or as a router's only shard. *)
let drain_in_flight ~start =
  let t = Lazy.force pipeline in
  let base = V.Pipeline.retrieval_decoder t in
  let slow fv =
    Unix.sleepf 0.01;
    base fv
  in
  let dir = fresh_dir "drain_sock" in
  let srv = mk_server ~run_dir:dir ~decoder:slow () in
  let socket = sock_path () in
  let cfg = { Ev.default_config with Ev.ev_slots = 1; ev_steps_per_tick = 1 } in
  let h = start ~cfg srv ~path:socket in
  let _, busy = Lazy.force busiest_fname in
  let other = Lazy.force second_fname in
  let stream fname =
    Domain.spawn (fun () -> S.Sock.stream ~timeout_s:60.0 ~socket (mk fname))
  in
  let admitted n =
    let deadline = Unix.gettimeofday () +. 30.0 in
    while (Ev.stats (Ev.engine h)).Ev.ev_streams < n do
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "stream %d was never admitted" n;
      Unix.sleepf 0.001
    done
  in
  let a = stream busy in
  admitted 1;
  let b = stream other in
  admitted 2;
  let drained = S.Sock.drain ~timeout_s:60.0 ~socket () in
  let done_ d =
    match Domain.join d with
    | Ok frames -> (
        match List.rev frames with
        | S.Proto.Ffinal (S.Proto.Done _) :: _ -> ()
        | _ -> Alcotest.fail "an in-flight stream must end Done")
    | Error e -> Alcotest.failf "in-flight stream failed: %s" e
  in
  done_ a;
  done_ b;
  (match drained with
  | Some hs ->
      Alcotest.(check bool) "drain reply after both streams" true
        (hs.S.Health.h_state = S.Health.Stopped
        && hs.S.Health.h_completed = 2
        && hs.S.Health.h_journal_lag = 0)
  | None -> Alcotest.fail "no drain reply");
  Ev.wait h;
  Alcotest.(check (list string)) "the drained journal seals both functions"
    (List.sort compare [ busy; other ])
    (Vega_chaos.Ctx.sealed dir)

let test_socket_drain_in_flight () =
  drain_in_flight ~start:(fun ~cfg srv ~path -> Ev.start ~cfg srv ~path)

(* A daemon steps its active streams in parallel, one domain per slot:
   two concurrent streams overlap inside the decoder. *)
let test_daemon_steps_in_parallel () =
  let t = Lazy.force pipeline in
  let base = V.Pipeline.retrieval_decoder t in
  let inflight = Atomic.make 0 and peak = Atomic.make 0 in
  let tracked fv =
    let n = Atomic.fetch_and_add inflight 1 + 1 in
    let rec raise_peak () =
      let p = Atomic.get peak in
      if n > p && not (Atomic.compare_and_set peak p n) then raise_peak ()
    in
    raise_peak ();
    Fun.protect
      ~finally:(fun () -> Atomic.decr inflight)
      (fun () ->
        Unix.sleepf 0.01;
        base fv)
  in
  let srv = mk_server ~decoder:tracked () in
  let socket = sock_path () in
  let cfg = { Ev.default_config with Ev.ev_slots = 2; ev_steps_per_tick = 1 } in
  let h = Ev.start ~cfg srv ~path:socket in
  let _, busy = Lazy.force busiest_fname in
  let other = Lazy.force second_fname in
  let streams =
    List.map
      (fun f ->
        Domain.spawn (fun () -> S.Sock.stream ~timeout_s:60.0 ~socket (mk f)))
      [ busy; other ]
  in
  List.iter
    (fun d ->
      match Domain.join d with
      | Ok frames -> (
          match List.rev frames with
          | S.Proto.Ffinal (S.Proto.Done _) :: _ -> ()
          | _ -> Alcotest.fail "stream must end Done")
      | Error e -> Alcotest.failf "stream failed: %s" e)
    streams;
  Ev.stop h;
  Alcotest.(check int) "two decodes in flight at once" 2 (Atomic.get peak)

(* A socket daemon keeps no decision log: nothing reads it, and it
   would grow for as long as the daemon lives. *)
let test_socket_daemon_log_flat () =
  let srv = mk_server () in
  let socket = sock_path () in
  let h = Ev.start srv ~path:socket in
  let fname = List.hd (fnames (Lazy.force pipeline)) in
  let requests n =
    for _ = 1 to n do
      match S.Sock.request ~socket (mk fname) with
      | S.Proto.Done _ -> ()
      | r -> Alcotest.failf "request failed: %s" (S.Proto.encode_reply r)
    done
  in
  requests 10;
  let after_10 = String.length (Ev.log (Ev.engine h)) in
  requests 190;
  Alcotest.(check int) "log length flat from 10 to 200 requests" after_10
    (String.length (Ev.log (Ev.engine h)));
  Ev.stop h

(* A socket daemon with an active stream takes its next step at once
   instead of waiting out the tick in select: on a quarter-second tick
   and one statement per tick, a plain request for the busiest function
   returns in a fraction of [n] ticks, while an idle daemon still ticks
   at most once per tick. *)
let test_daemon_steps_without_idling () =
  let n, busy = Lazy.force busiest_fname in
  let srv = mk_server () in
  let socket = sock_path () in
  let tick_s = 0.25 in
  let cfg = { Ev.default_config with Ev.ev_steps_per_tick = 1 } in
  let started = Unix.gettimeofday () in
  let h = Ev.start ~cfg ~tick_s srv ~path:socket in
  Unix.sleepf 0.6;
  let ticks = (Ev.stats (Ev.engine h)).Ev.ev_ticks in
  let idle = Unix.gettimeofday () -. started in
  Alcotest.(check bool)
    (Printf.sprintf "idle: %d ticks in %.2f s" ticks idle)
    true
    (float_of_int ticks <= (idle /. tick_s) +. 1.0);
  let t0 = Unix.gettimeofday () in
  (match S.Sock.request ~timeout_s:60.0 ~socket (mk busy) with
  | S.Proto.Done _ -> ()
  | r -> Alcotest.failf "request failed: %s" (S.Proto.encode_reply r));
  let took = Unix.gettimeofday () -. t0 in
  let bound = float_of_int n *. tick_s /. 4.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d statements in %.3f s, bound %.3f s" n took bound)
    true (took < bound);
  Ev.stop h

(* A stream runs on its own supervisor fork, folded into the server's
   when it settles: deadline hits taken by stream decodes show up in
   [health]. Same stalling decoder and virtual clock as faultcheck's
   serve-deadline scenario. *)
let test_stream_deadline_hits_in_health () =
  let t = Lazy.force pipeline in
  let base = V.Pipeline.retrieval_decoder t in
  let vnow = ref 0.0 in
  let inj = R.Inject.create ~seed:13 ~every:1 R.Inject.Decoder_stall in
  let stalling fv =
    R.Inject.wrap_stalling_decoder inj
      ~stall:(fun () -> vnow := !vnow +. 1.0)
      base fv
  in
  match
    S.Server.create
      ~config:{ tcfg with S.Server.deadline_ms = 50 }
      ~now:(fun () -> !vnow)
      ~sleep:(fun d -> vnow := !vnow +. d)
      ~fallback:base t ~target ~decoder:stalling
  with
  | Error e -> Alcotest.failf "server create failed: %s" e
  | Ok srv ->
      (match S.Server.stream_start srv (mk (List.hd (fnames t))) with
      | Error r -> Alcotest.failf "rejected: %s" (S.Proto.reject_label r)
      | Ok s ->
          let rec go () =
            match S.Server.stream_step srv s with
            | S.Server.Sstmt _ -> go ()
            | S.Server.Sdone (S.Proto.Done _) -> ()
            | S.Server.Sdone r ->
                Alcotest.failf "stream failed: %s" (S.Proto.encode_reply r)
            | S.Server.Scancelled _ -> Alcotest.fail "stream cancelled"
          in
          go ());
      let h = S.Server.health srv in
      Alcotest.(check bool)
        (Printf.sprintf "stream deadline hits counted (%d)"
           h.S.Health.h_deadline_hits)
        true
        (h.S.Health.h_deadline_hits > 0);
      S.Server.drain srv

(* A simulated crash leaves the lifecycle state at Ready, but a killed
   server admits nothing: a stream for a function it completed before
   the crash is refused as Draining instead of replayed. The request
   the crash caught answers its settled [Failed]. *)
let test_killed_server_admits_nothing () =
  let t = Lazy.force pipeline in
  let first, second =
    match fnames t with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "corpus has fewer than two functions"
  in
  let run srv f = S.Server.request srv (mk f) in
  let is_done = function S.Proto.Done _ -> true | _ -> false in
  (* the journal records one completed function leaves behind *)
  let probe = mk_server ~run_dir:(fresh_dir "kill_probe") () in
  Alcotest.(check bool) "first function completes" true
    (is_done (run probe first));
  let records = (S.Server.health probe).S.Health.h_journal_records in
  S.Server.drain probe;
  match
    S.Server.create ~config:tcfg ~run_dir:(fresh_dir "kill_gate")
      ~kill_at:(records + 2) t ~target
      ~decoder:(V.Pipeline.retrieval_decoder t)
  with
  | Error e -> Alcotest.failf "server create failed: %s" e
  | Ok srv ->
      Alcotest.(check bool) "completes before the crash" true
        (is_done (run srv first));
      (match run srv second with
      | S.Proto.Failed m when m = S.Server.killed_message -> ()
      | r ->
          Alcotest.failf "expected the crash's failure, got %s"
            (S.Proto.encode_reply r));
      (match S.Server.stream_start srv (mk first) with
      | Error S.Proto.Draining -> ()
      | Error r ->
          Alcotest.failf "expected draining, got %s" (S.Proto.reject_label r)
      | Ok _ -> Alcotest.fail "a killed server admitted a stream");
      let h = S.Server.health srv in
      Alcotest.(check bool) "stopped, crashed stream settled" true
        (h.S.Health.h_state = S.Health.Stopped
        && h.S.Health.h_busy = 0);
      match S.Server.drain srv with
      | () -> Alcotest.fail "drain must re-raise the crash"
      | exception R.Journal.Killed _ -> ()

(* A socket daemon with two slots streams two functions at once
   through the untrained model decoder, each slot decoding its own
   request on its own domain: each Done equals the function generated
   in process. *)
let test_model_streams_on_two_slots () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.model_decoder t in
  let fns = [ snd (Lazy.force busiest_fname); Lazy.force second_fname ] in
  let expected =
    let srv = mk_server ~decoder () in
    let replies = List.map (fun f -> S.Server.request srv (mk f)) fns in
    S.Server.drain srv;
    replies
  in
  let srv = mk_server ~decoder () in
  let socket = sock_path () in
  let cfg = { Ev.default_config with Ev.ev_slots = 2; ev_steps_per_tick = 1 } in
  let h = Ev.start ~cfg srv ~path:socket in
  let streams =
    List.map
      (fun f ->
        Domain.spawn (fun () -> S.Sock.stream ~timeout_s:60.0 ~socket (mk f)))
      fns
  in
  let finals =
    List.map
      (fun d ->
        match Domain.join d with
        | Ok frames -> (
            match List.rev frames with
            | S.Proto.Ffinal r :: _ -> r
            | _ -> Alcotest.fail "stream ended without a final frame")
        | Error e -> Alcotest.failf "stream failed: %s" e)
      streams
  in
  Ev.stop h;
  List.iter2
    (fun f (want, got) ->
      (match want with
      | S.Proto.Done _ -> ()
      | r -> Alcotest.failf "%s in process: %s" f (S.Proto.encode_reply r));
      Alcotest.(check string)
        (f ^ " over the socket = in process")
        (S.Proto.encode_reply want) (S.Proto.encode_reply got))
    fns
    (List.combine expected finals)

let suite =
  [
    QCheck_alcotest.to_alcotest test_frame_roundtrip;
    QCheck_alcotest.to_alcotest test_frame_truncation;
    Alcotest.test_case "engine: stream basic" `Quick test_stream_basic;
    Alcotest.test_case "engine: plain request" `Quick
      test_plain_request_on_engine;
    Alcotest.test_case "cancel at first/middle/last boundary" `Quick
      test_cancel_boundaries;
    Alcotest.test_case "resume after cancel is bit-identical" `Quick
      test_cancel_then_resume_bit_identity;
    Alcotest.test_case "slow reader shed with typed rejection" `Quick
      test_slow_reader_shed;
    Alcotest.test_case "idle and slow-loris shed on the tick clock" `Quick
      test_idle_and_slow_loris_shed;
    Alcotest.test_case "slot handoff and wait-cap shed" `Quick
      test_slot_handoff_and_queue_full;
    Alcotest.test_case "health reports the loop's queue" `Quick
      test_loop_health;
    Alcotest.test_case "expiry while waiting for a slot" `Quick
      test_expired_waiting_for_slot;
    Alcotest.test_case "drain waits for in-flight streams" `Quick
      test_drain_waits_for_streams;
    Alcotest.test_case "half-close propagates as cancellation" `Quick
      test_half_close_cancels;
    Alcotest.test_case "peer reset cleans up" `Quick test_peer_reset_cleans_up;
    Alcotest.test_case "send_all: peer gone is typed" `Quick
      test_send_all_peer_gone;
    Alcotest.test_case "chaos schedule replays byte-identically" `Quick
      test_schedule_replays_byte_identically;
    Alcotest.test_case "256-connection storm with cancel and slow" `Quick
      test_storm_256_connections;
    Alcotest.test_case "event loop over real sockets" `Quick
      test_evloop_socket_end_to_end;
    Alcotest.test_case "socket daemon keeps no log" `Quick
      test_socket_daemon_log_flat;
    Alcotest.test_case "socket drain finishes in-flight streams" `Quick
      test_socket_drain_in_flight;
    Alcotest.test_case "daemon steps streams in parallel" `Quick
      test_daemon_steps_in_parallel;
    Alcotest.test_case "daemon steps active streams without idling" `Quick
      test_daemon_steps_without_idling;
    Alcotest.test_case "stream deadline hits reach health" `Quick
      test_stream_deadline_hits_in_health;
    Alcotest.test_case "killed server admits nothing" `Quick
      test_killed_server_admits_nothing;
    Alcotest.test_case "model streams on two slots" `Quick
      test_model_streams_on_two_slots;
  ]
