(* Tests for the resilient serving layer: token bucket, bounded
   admission queue, wire protocol, health snapshots, the server's
   shedding / deadline / drain / resume behaviour, and in-process vs
   socket parity. *)

module V = Vega
module R = Vega_robust
module S = Vega_serve

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "vega_serve_%d_%s%d" (Unix.getpid ()) name !n)
    in
    if not (Sys.file_exists d) then Unix.mkdir d 0o755;
    d

let target = "RISCV"
let pipeline = Test_robust.pipeline

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

(* quiet config for tests: generous per-client budget, frozen refill *)
let tcfg =
  {
    S.Server.default_config with
    S.Server.domains = 1;
    queue_cap = 128;
    client_burst = 1000.0;
    client_rate = 0.0;
  }

let expect_done = function
  | S.Proto.Done _ -> ()
  | S.Proto.Rejected r -> Alcotest.failf "rejected: %s" (S.Proto.reject_to_string r)
  | S.Proto.Failed m -> Alcotest.failf "failed: %s" m

(* ---------------- token bucket ---------------- *)

let test_bucket () =
  let now = ref 0.0 in
  let b = S.Bucket.create ~now:(fun () -> !now) ~rate:2.0 ~burst:3.0 () in
  Alcotest.(check (float 0.0)) "full at first sight" 3.0 (S.Bucket.balance b "a");
  Alcotest.(check bool) "burst admits" true
    (S.Bucket.take b "a" && S.Bucket.take b "a" && S.Bucket.take b "a");
  Alcotest.(check bool) "burst exhausted" false (S.Bucket.take b "a");
  (* other clients have their own bucket *)
  Alcotest.(check bool) "other client unaffected" true (S.Bucket.take b "b");
  Alcotest.(check int) "two clients tracked" 2 (S.Bucket.clients b);
  (* refill at [rate] tokens/second, capped at [burst] *)
  now := 1.0;
  Alcotest.(check (float 1e-9)) "refilled by rate*dt" 2.0
    (S.Bucket.balance b "a");
  Alcotest.(check bool) "refill admits again" true (S.Bucket.take b "a");
  now := 1000.0;
  Alcotest.(check (float 1e-9)) "refill capped at burst" 3.0
    (S.Bucket.balance b "a");
  (* a zero-rate bucket is a pure counter: no refill ever *)
  let frozen = S.Bucket.create ~now:(fun () -> !now) ~rate:0.0 ~burst:1.0 () in
  Alcotest.(check bool) "one take" true (S.Bucket.take frozen "c");
  now := 1.0e9;
  Alcotest.(check bool) "never refills" false (S.Bucket.take frozen "c")

(* ---------------- admission queue ---------------- *)

let test_admission () =
  let q = S.Admission.create ~cap:2 () in
  Alcotest.(check int) "capacity" 2 (S.Admission.capacity q);
  (match S.Admission.offer q "a" with
  | S.Admission.Accepted 1 -> ()
  | _ -> Alcotest.fail "first offer accepted at depth 1");
  (match S.Admission.offer q "b" with
  | S.Admission.Accepted 2 -> ()
  | _ -> Alcotest.fail "second offer accepted at depth 2");
  (* at capacity: shed synchronously, never grow *)
  (match S.Admission.offer q "c" with
  | S.Admission.Shed 2 -> ()
  | _ -> Alcotest.fail "third offer shed at depth 2");
  Alcotest.(check int) "depth bounded" 2 (S.Admission.depth q);
  (* a take frees a slot *)
  Alcotest.(check (option string)) "fifo take" (Some "a") (S.Admission.take q);
  (match S.Admission.offer q "c" with
  | S.Admission.Accepted 2 -> ()
  | _ -> Alcotest.fail "freed slot admits again");
  (* close: no more admission, but the backlog drains *)
  S.Admission.close q;
  (match S.Admission.offer q "d" with
  | S.Admission.Closed -> ()
  | _ -> Alcotest.fail "closed queue rejects");
  Alcotest.(check bool) "reports closed" true (S.Admission.closed q);
  Alcotest.(check (option string)) "backlog drains" (Some "b")
    (S.Admission.take q);
  Alcotest.(check (option string)) "backlog drains in order" (Some "c")
    (S.Admission.take q);
  Alcotest.(check (option string)) "exhausted after drain" None
    (S.Admission.take q)

let test_admission_paused () =
  (* paused: accepted items build up; a blocked taker wakes on resume *)
  let q = S.Admission.create ~paused:true ~cap:4 () in
  (match S.Admission.offer q 1 with
  | S.Admission.Accepted 1 -> ()
  | _ -> Alcotest.fail "paused queue still admits");
  let got = Atomic.make None in
  let d = Domain.spawn (fun () -> Atomic.set got (Some (S.Admission.take q))) in
  Unix.sleepf 0.05;
  Alcotest.(check bool) "taker blocked while paused" true
    (Atomic.get got = None);
  S.Admission.resume q;
  Domain.join d;
  Alcotest.(check bool) "resume releases the taker" true
    (Atomic.get got = Some (Some 1));
  S.Admission.close q

(* ---------------- wire protocol ---------------- *)

let test_proto_roundtrip () =
  let requests =
    [
      mk "getRelocType";
      mk ~client:"weird client\t\n" ~deadline_ms:250 "f";
      { S.Proto.rq_client = ""; rq_target = ""; rq_fname = ""; rq_deadline_ms = Some 0 };
    ]
  in
  List.iter
    (fun r ->
      match S.Proto.decode_command (S.Proto.encode_request r) with
      | S.Proto.Decoded (S.Proto.Creq r') ->
          Alcotest.(check bool) "request round-trips" true (r = r')
      | _ -> Alcotest.fail "request failed to round-trip")
    requests;
  List.iter
    (fun c ->
      Alcotest.(check bool) "command round-trips" true
        (S.Proto.decode_command (S.Proto.encode_command c) = S.Proto.Decoded c))
    [ S.Proto.Chealth; S.Proto.Cdrain; S.Proto.Cping; S.Proto.Cshards ];
  let replies =
    [
      S.Proto.Done
        {
          r_fname = "f";
          r_target = "RISCV";
          r_confidence = 0.4375;
          r_degraded = 2;
          r_resumed = true;
          r_source = "unsigned f ( ) {\nreturn 1 ;\n}";
        };
      S.Proto.Rejected (S.Proto.Queue_full { depth = 16; cap = 16 });
      S.Proto.Rejected (S.Proto.Budget_exhausted { client = "c" });
      S.Proto.Rejected S.Proto.Draining;
      S.Proto.Rejected (S.Proto.Expired { waited_ms = 51 });
      S.Proto.Rejected (S.Proto.Oversize { bytes = 9999999; limit = 1024 });
      S.Proto.Rejected (S.Proto.Bad_request "nope");
      S.Proto.Rejected (S.Proto.Version_mismatch { got = 9; want = 1 });
      S.Proto.Rejected (S.Proto.Shard_down { shard = "shard-2" });
      S.Proto.Failed "boom";
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        ("reply round-trips: " ^ S.Proto.encode_reply r)
        true
        (S.Proto.decode_reply (S.Proto.encode_reply r) = S.Proto.Decoded r))
    replies;
  (* junk never parses *)
  List.iter
    (fun line ->
      Alcotest.(check bool) "junk rejected" true
        (S.Proto.decode_command line = S.Proto.Malformed
        && S.Proto.decode_reply line = S.Proto.Malformed))
    [ ""; "hello"; "req|a|b"; String.make 64 '\xff' ]

let test_proto_version_skew () =
  (* a well-formed line stamped with another version is version skew,
     not a parse fault, on both the command and the reply side *)
  let skewed_cmd = S.Proto.encode_command_at ~version:9 S.Proto.Cping in
  (match S.Proto.decode_command skewed_cmd with
  | S.Proto.Version_skew { got } ->
      Alcotest.(check int) "skewed command carries peer version" 9 got
  | _ -> Alcotest.fail "skewed command not detected");
  let skewed_reply =
    S.Proto.encode_reply_at ~version:3 (S.Proto.Failed "old peer")
  in
  (match S.Proto.decode_reply skewed_reply with
  | S.Proto.Version_skew { got } ->
      Alcotest.(check int) "skewed reply carries peer version" 3 got
  | _ -> Alcotest.fail "skewed reply not detected");
  (* a garbled version field is malformed, not skew *)
  let bad = R.Wire.encode_line [ "vX"; "ping" ] in
  Alcotest.(check bool) "garbled version field is malformed" true
    (S.Proto.decode_command bad = S.Proto.Malformed);
  (* current-version lines still decode *)
  Alcotest.(check bool) "current version decodes" true
    (S.Proto.decode_command (S.Proto.encode_command S.Proto.Cping)
    = S.Proto.Decoded S.Proto.Cping)

let test_health_wire () =
  let snap =
    {
      S.Health.h_state = S.Health.Draining;
      h_queue_depth = 3;
      h_queue_cap = 16;
      h_busy = 2;
      h_domains = 4;
      h_accepted = 100;
      h_rejected = 31;
      h_completed = 95;
      h_deadline_hits = 7;
      h_breaker_open = true;
      h_journal_records = 812;
      h_journal_lag = 5;
      h_cancelled = 1;
      h_epoch = 2;
    }
  in
  Alcotest.(check bool) "snapshot round-trips" true
    (S.Health.decode (S.Health.encode snap) = Some snap);
  List.iter
    (fun st ->
      Alcotest.(check bool) "state name round-trips" true
        (S.Health.state_of_name (S.Health.state_name st) = Some st))
    [ S.Health.Starting; S.Health.Ready; S.Health.Draining; S.Health.Stopped ];
  Alcotest.(check bool) "summary mentions the state" true
    (String.length (S.Health.summary snap) > 0
    && String.sub (S.Health.summary snap) 0 6 = "state=")

(* ---------------- server behaviour ---------------- *)

let test_serve_basic () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  match S.Server.create ~config:tcfg t ~target ~decoder with
  | Error e -> Alcotest.failf "create failed: %s" e
  | Ok srv ->
      let fname = List.hd (fnames t) in
      let r1 = S.Server.request srv (mk fname) in
      expect_done r1;
      (* a repeat is served from the completed table, bit-identically *)
      let r2 = S.Server.request srv (mk fname) in
      Alcotest.(check bool) "idempotent repeat" true (r1 = r2);
      (* bad requests are typed, not crashes *)
      (match S.Server.submit srv { (mk fname) with S.Proto.rq_target = "ARM" } with
      | Error (S.Proto.Bad_request _) -> ()
      | _ -> Alcotest.fail "wrong target must be a bad request");
      (match S.Server.submit srv (mk "noSuchFunction") with
      | Error (S.Proto.Bad_request _) -> ()
      | _ -> Alcotest.fail "unknown function must be a bad request");
      let h = S.Server.health srv in
      Alcotest.(check bool) "ready, admissions counted" true
        (h.S.Health.h_state = S.Health.Ready
        && h.S.Health.h_accepted = 2
        && h.S.Health.h_rejected = 2);
      Alcotest.(check int) "one function generated" 1
        (List.length (S.Server.functions srv));
      S.Server.drain srv;
      (* counters are only quiescent once the workers have joined *)
      let h = S.Server.health srv in
      Alcotest.(check bool) "stopped after drain, nothing in flight" true
        (h.S.Health.h_state = S.Health.Stopped
        && h.S.Health.h_completed = 2
        && h.S.Health.h_journal_lag = 0)

(* A worker counts a job before delivering its reply, so [health] read
   as soon as [request] returns already shows it settled. *)
let test_health_settled_on_reply () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  match S.Server.create ~config:tcfg t ~target ~decoder with
  | Error e -> Alcotest.failf "create failed: %s" e
  | Ok srv ->
      let names = Array.of_list (fnames t) in
      for i = 1 to 200 do
        expect_done (S.Server.request srv (mk names.(i mod 3)));
        let h = S.Server.health srv in
        if
          h.S.Health.h_journal_lag <> 0
          || h.S.Health.h_busy <> 0
          || h.S.Health.h_completed <> i
        then
          Alcotest.failf "after request %d: lag %d, busy %d, completed %d" i
            h.S.Health.h_journal_lag h.S.Health.h_busy h.S.Health.h_completed
      done;
      S.Server.drain srv

let test_queue_full_shedding () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let cfg = { tcfg with S.Server.queue_cap = 2 } in
  match S.Server.create ~config:cfg ~paused:true t ~target ~decoder with
  | Error e -> Alcotest.failf "create failed: %s" e
  | Ok srv ->
      let names = fnames t in
      let submit i = S.Server.submit srv (mk (List.nth names i)) in
      let r0 = submit 0 and r1 = submit 1 and r2 = submit 2 and r3 = submit 3 in
      Alcotest.(check bool) "first two admitted" true
        (Result.is_ok r0 && Result.is_ok r1);
      (match (r2, r3) with
      | ( Error (S.Proto.Queue_full { cap = 2; _ }),
          Error (S.Proto.Queue_full { cap = 2; _ }) ) ->
          ()
      | _ -> Alcotest.fail "overflow must shed with the queue's cap");
      Alcotest.(check int) "sheds counted" 2
        (S.Server.health srv).S.Health.h_rejected;
      S.Server.resume_workers srv;
      List.iter
        (function Ok tk -> expect_done (S.Server.await tk) | Error _ -> ())
        [ r0; r1 ];
      S.Server.drain srv;
      let h = S.Server.health srv in
      Alcotest.(check bool) "accepted + shed accounted" true
        (h.S.Health.h_accepted = 2 && h.S.Health.h_rejected = 2
        && h.S.Health.h_completed = 2)

let test_budget_exhausted () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let cfg = { tcfg with S.Server.client_burst = 2.0; client_rate = 0.0 } in
  match S.Server.create ~config:cfg ~paused:true t ~target ~decoder with
  | Error e -> Alcotest.failf "create failed: %s" e
  | Ok srv ->
      let names = fnames t in
      let submit client i = S.Server.submit srv (mk ~client (List.nth names i)) in
      Alcotest.(check bool) "burst admits" true
        (Result.is_ok (submit "greedy" 0) && Result.is_ok (submit "greedy" 1));
      (match submit "greedy" 2 with
      | Error (S.Proto.Budget_exhausted { client = "greedy" }) -> ()
      | _ -> Alcotest.fail "third request must exhaust the client budget");
      (* the budget is per client: others are unaffected *)
      (match submit "patient" 2 with
      | Ok _ -> ()
      | Error r ->
          Alcotest.failf "other client rejected: %s" (S.Proto.reject_to_string r));
      S.Server.resume_workers srv;
      S.Server.drain srv

let test_deadline_degrade () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let now = ref 0.0 in
  let inj = R.Inject.create ~seed:13 ~every:1 R.Inject.Decoder_stall in
  let stalling =
    R.Inject.wrap_stalling_decoder inj ~stall:(fun () -> now := !now +. 1.0)
      decoder
  in
  let cfg = { tcfg with S.Server.deadline_ms = 50 } in
  match
    S.Server.create ~config:cfg
      ~now:(fun () -> !now)
      ~sleep:(fun d -> now := !now +. d)
      ~fallback:decoder t ~target ~decoder:stalling
  with
  | Error e -> Alcotest.failf "create failed: %s" e
  | Ok srv ->
      let names = fnames t in
      let replies =
        List.map
          (fun i -> S.Server.request srv (mk (List.nth names i)))
          [ 0; 1; 2 ]
      in
      List.iter expect_done replies;
      Alcotest.(check bool) "statements degraded under the deadline" true
        (List.exists
           (function S.Proto.Done d -> d.r_degraded > 0 | _ -> false)
           replies);
      (* every surviving statement respects its rung's confidence cap *)
      List.iter
        (fun (gf : V.Generate.gen_func) ->
          List.iter
            (fun (s : V.Generate.gen_stmt) ->
              Alcotest.(check bool) "score under rung cap" true
                (s.V.Generate.g_score
                <= R.Degrade.cap s.V.Generate.g_level +. 1e-9))
            gf.V.Generate.gf_stmts)
        (S.Server.functions srv);
      Alcotest.(check bool) "supervisor deadline fired" true
        ((S.Server.health srv).S.Health.h_deadline_hits > 0);
      S.Server.drain srv

let test_expired_in_queue () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let now = ref 0.0 in
  let inj = R.Inject.create ~seed:13 ~every:1 R.Inject.Decoder_stall in
  let stalling =
    R.Inject.wrap_stalling_decoder inj ~stall:(fun () -> now := !now +. 1.0)
      decoder
  in
  let cfg = { tcfg with S.Server.deadline_ms = 50 } in
  match
    S.Server.create ~config:cfg ~paused:true
      ~now:(fun () -> !now)
      ~sleep:(fun d -> now := !now +. d)
      ~fallback:decoder t ~target ~decoder:stalling
  with
  | Error e -> Alcotest.failf "create failed: %s" e
  | Ok srv -> (
      let fname = List.hd (fnames t) in
      (* two requests queue up; executing the first burns far more than
         50ms of (virtual) clock, so the second expires while queued *)
      match (S.Server.submit srv (mk fname), S.Server.submit srv (mk fname)) with
      | Ok k1, Ok k2 ->
          S.Server.resume_workers srv;
          expect_done (S.Server.await k1);
          (match S.Server.await k2 with
          | S.Proto.Rejected (S.Proto.Expired { waited_ms }) ->
              Alcotest.(check bool) "waited at least the deadline" true
                (waited_ms >= 50)
          | r ->
              Alcotest.failf "expected expiry, got %s"
                (S.Proto.encode_reply r));
          S.Server.drain srv
      | _ -> Alcotest.fail "both submits must be admitted")

let test_drain_stops_admission () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  match S.Server.create ~config:tcfg t ~target ~decoder with
  | Error e -> Alcotest.failf "create failed: %s" e
  | Ok srv ->
      expect_done (S.Server.request srv (mk (List.hd (fnames t))));
      S.Server.drain srv;
      (match S.Server.submit srv (mk (List.hd (fnames t))) with
      | Error S.Proto.Draining -> ()
      | _ -> Alcotest.fail "a drained server must refuse admission");
      (* drain is idempotent *)
      S.Server.drain srv;
      let h = S.Server.health srv in
      Alcotest.(check bool) "stopped, empty, idle" true
        (h.S.Health.h_state = S.Health.Stopped
        && h.S.Health.h_queue_depth = 0
        && h.S.Health.h_busy = 0)

let test_drain_resume_bit_identity () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let names = fnames t in
  (* reference: an ephemeral server, every function *)
  let expect =
    match S.Server.create ~config:tcfg t ~target ~decoder with
    | Error e -> Alcotest.failf "reference create failed: %s" e
    | Ok srv ->
        List.iter (fun f -> expect_done (S.Server.request srv (mk f))) names;
        let r = Test_durable.render (S.Server.functions srv) in
        S.Server.drain srv;
        r
  in
  let dir = fresh_dir "drain" in
  (match S.Server.create ~config:tcfg ~run_dir:dir t ~target ~decoder with
  | Error e -> Alcotest.failf "durable create failed: %s" e
  | Ok srv ->
      List.iter (fun f -> expect_done (S.Server.request srv (mk f))) names;
      S.Server.drain srv;
      Alcotest.(check bool) "drain leaves a checkpoint" true
        (Result.is_ok
           (R.Checkpoint.load ~path:(V.Pipeline.checkpoint_path dir))));
  (* a fresh (non-resume) server must refuse the populated run dir *)
  (match S.Server.create ~config:tcfg ~run_dir:dir t ~target ~decoder with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fresh server over an existing journal accepted");
  match S.Server.create ~config:tcfg ~run_dir:dir ~resume:true t ~target ~decoder with
  | Error e -> Alcotest.failf "resume create failed: %s" e
  | Ok srv ->
      Alcotest.(check int) "everything restored from the journal"
        (List.length names)
        (S.Server.resumed_functions srv);
      (* a restored function replies from the journal, flagged resumed *)
      (match S.Server.request srv (mk (List.hd names)) with
      | S.Proto.Done d ->
          Alcotest.(check bool) "flagged resumed" true d.r_resumed
      | r -> Alcotest.failf "resumed request failed: %s" (S.Proto.encode_reply r));
      Alcotest.(check string) "bit-identical across drain + restart" expect
        (Test_durable.render (S.Server.functions srv));
      S.Server.drain srv

(* ---------------- socket transport ---------------- *)

let sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vega_s%d_%d.sock" (Unix.getpid ()) !n)

let test_sock_parity () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  match S.Server.create ~config:tcfg t ~target ~decoder with
  | Error e -> Alcotest.failf "create failed: %s" e
  | Ok srv ->
      let socket = sock_path () in
      let l = S.Sock.start srv ~path:socket in
      Alcotest.(check bool) "pings" true (S.Sock.ping ~socket ());
      let fname = List.hd (fnames t) in
      (* the same request through both surfaces must answer identically *)
      let in_proc = S.Server.request srv (mk fname) in
      expect_done in_proc;
      let over_sock = S.Sock.request ~socket (mk fname) in
      Alcotest.(check bool) "in-process and socket replies identical" true
        (in_proc = over_sock);
      (match S.Sock.health ~socket () with
      | None -> Alcotest.fail "no health over the socket"
      | Some h ->
          let h' = S.Server.health srv in
          (* compare fields that are quiescent between requests; the
             completed counter trails reply delivery by one lock hop *)
          Alcotest.(check bool) "socket health matches in-process" true
            (h.S.Health.h_state = h'.S.Health.h_state
            && h.S.Health.h_accepted = h'.S.Health.h_accepted
            && h.S.Health.h_queue_cap = h'.S.Health.h_queue_cap
            && h.S.Health.h_domains = h'.S.Health.h_domains));
      (* drain over the socket stops the daemon and the listener *)
      (match S.Sock.drain ~socket () with
      | Some h ->
          Alcotest.(check bool) "drained state reported" true
            (h.S.Health.h_state = S.Health.Stopped)
      | None -> Alcotest.fail "no drain reply");
      S.Sock.wait l;
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

let test_sock_bad_lines () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  match S.Server.create ~config:tcfg t ~target ~decoder with
  | Error e -> Alcotest.failf "create failed: %s" e
  | Ok srv ->
      let socket = sock_path () in
      let l = S.Sock.start srv ~path:socket in
      let send_raw line =
        S.Sock.with_conn ~socket (fun fd _ ->
            S.Sock.write_line fd line;
            match S.Sock.read_bounded_line fd with
            | `Line reply -> S.Proto.decode_reply reply
            | `Eof | `Oversize _ -> S.Proto.Malformed)
      in
      (* an unparseable line gets a typed bad-request, not a hang *)
      (match send_raw "complete garbage" with
      | S.Proto.Decoded (S.Proto.Rejected (S.Proto.Bad_request _)) -> ()
      | _ -> Alcotest.fail "garbage line must answer bad-request");
      (* a multi-megabyte line is rejected with bounded allocation *)
      (match send_raw (String.make (2 * 1024 * 1024) 'A') with
      | S.Proto.Decoded (S.Proto.Rejected (S.Proto.Oversize { limit; _ })) ->
          Alcotest.(check int) "limit reported" S.Sock.max_line_bytes limit
      | _ -> Alcotest.fail "oversize line must answer oversize");
      (* a well-formed line from a future protocol version gets the
         typed version rejection, not a parse fault *)
      (match send_raw (S.Proto.encode_command_at ~version:99 S.Proto.Cping) with
      | S.Proto.Decoded
          (S.Proto.Rejected (S.Proto.Version_mismatch { got; want })) ->
          Alcotest.(check int) "peer version echoed" 99 got;
          Alcotest.(check int) "server version reported" S.Proto.version want
      | _ -> Alcotest.fail "version-skewed line must answer version-mismatch");
      (* a shard-status probe against a plain server is a typed no *)
      (match send_raw (S.Proto.encode_command S.Proto.Cshards) with
      | S.Proto.Decoded (S.Proto.Rejected (S.Proto.Bad_request _)) -> ()
      | _ -> Alcotest.fail "Cshards on a plain server must answer bad-request");
      (* the server survives all of it *)
      expect_done (S.Sock.request ~socket (mk (List.hd (fnames t))));
      ignore (S.Sock.drain ~socket ());
      S.Sock.wait l

(* Partial-write hardening: push a line much larger than the socket
   buffers through a socketpair shrunk to a few kB — write_line must
   loop over the short writes single_write returns, and the reader must
   reassemble the exact line. *)
let test_sock_partial_writes () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt_int a Unix.SO_SNDBUF 4096;
     Unix.setsockopt_int b Unix.SO_RCVBUF 4096
   with Unix.Unix_error _ -> ());
  let payload =
    String.init 300_000 (fun i ->
        Char.chr (32 + ((i * 131) mod 90)) (* printable, no '\n' *))
  in
  let writer =
    Domain.spawn (fun () ->
        S.Sock.write_line a payload;
        S.Sock.write_line a "tail";
        Unix.close a)
  in
  (match S.Sock.read_bounded_line b with
  | `Line got ->
      Alcotest.(check int) "length preserved" (String.length payload)
        (String.length got);
      Alcotest.(check bool) "payload byte-identical" true (got = payload)
  | `Eof -> Alcotest.fail "eof before the big line arrived"
  | `Oversize _ -> Alcotest.fail "big line misread as oversize");
  (match S.Sock.read_bounded_line b with
  | `Line got -> Alcotest.(check string) "next line intact" "tail" got
  | _ -> Alcotest.fail "second line lost after the big write");
  Domain.join writer;
  Unix.close b

(* ---------------- worker pool ---------------- *)

let test_pool () =
  let hits = Atomic.make 0 in
  let p =
    Vega_util.Par.Pool.spawn ~domains:3 (fun w ->
        Atomic.fetch_and_add hits (1 lsl (8 * w)) |> ignore)
  in
  Alcotest.(check int) "pool size" 3 (Vega_util.Par.Pool.size p);
  Vega_util.Par.Pool.join p;
  Alcotest.(check int) "every worker ran exactly once" 0x010101
    (Atomic.get hits);
  (* a worker exception surfaces at join, lowest index first *)
  let p2 =
    Vega_util.Par.Pool.spawn ~domains:2 (fun w ->
        if w = 1 then failwith "worker 1 died")
  in
  match Vega_util.Par.Pool.join p2 with
  | () -> Alcotest.fail "expected the worker failure to surface"
  | exception Failure m -> Alcotest.(check string) "failure text" "worker 1 died" m

let suite =
  [
    Alcotest.test_case "token bucket" `Quick test_bucket;
    Alcotest.test_case "admission queue" `Quick test_admission;
    Alcotest.test_case "admission pause/resume" `Quick test_admission_paused;
    Alcotest.test_case "protocol round-trip" `Quick test_proto_roundtrip;
    Alcotest.test_case "protocol version skew" `Quick test_proto_version_skew;
    Alcotest.test_case "health wire format" `Quick test_health_wire;
    Alcotest.test_case "serve basic + idempotent" `Quick test_serve_basic;
    Alcotest.test_case "health settled on reply" `Quick
      test_health_settled_on_reply;
    Alcotest.test_case "queue-full shedding" `Quick test_queue_full_shedding;
    Alcotest.test_case "per-client budget" `Quick test_budget_exhausted;
    Alcotest.test_case "deadline degrades via ladder" `Quick
      test_deadline_degrade;
    Alcotest.test_case "expiry while queued" `Quick test_expired_in_queue;
    Alcotest.test_case "drain stops admission" `Quick test_drain_stops_admission;
    Alcotest.test_case "drain/resume bit-identity" `Quick
      test_drain_resume_bit_identity;
    Alcotest.test_case "socket parity" `Quick test_sock_parity;
    Alcotest.test_case "socket bad lines" `Quick test_sock_bad_lines;
    Alcotest.test_case "socket partial writes" `Quick test_sock_partial_writes;
    Alcotest.test_case "worker pool" `Quick test_pool;
  ]
