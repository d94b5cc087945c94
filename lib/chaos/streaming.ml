(* Streaming connection chaos against the event-loop serve core:
   cancel-storm, slow-loris shed and mid-stream kill/resume. Every
   scenario runs twice; the engine decision log must be byte-equal
   across the twin runs, no request may be lost or double-decoded, and
   no raw exception may escape the event loop. *)

module R = Vega_robust
module S = Vega_serve

(* ---- scripted clients ----

   One plan entry per connection against the vega.serve event-loop
   engine: which function to stream (None: connect and go silent, the
   slow-loris probe), the per-tick read budget, and the statement
   boundary — if any — at which the scripted peer cancels, hard
   disconnects, or half-closes its write side. The driver is pure
   scheduling against the engine's tick clock, so a schedule replays
   byte-identically and the engine decision log is the witness. *)
type chaos_client = {
  cc_fname : string option;
  cc_budget : int;  (* read budget, bytes per tick *)
  cc_cancel_at : int option;  (* cancel after n statement frames *)
  cc_kill_at : int option;  (* hard disconnect after n statement frames *)
  cc_eof_at : int option;  (* half-close after n statement frames *)
}

let chaos_plain ?(budget = max_int) fname =
  {
    cc_fname = Some fname;
    cc_budget = budget;
    cc_cancel_at = None;
    cc_kill_at = None;
    cc_eof_at = None;
  }

type chaos_result = {
  cr_fname : string option;
  cr_stmts : int;  (* statement frames observed on the wire *)
  cr_final : S.Proto.reply option;  (* terminal frame, if readable *)
}

(* Act out [clients] against a fresh engine. Ticks until every client
   has its final frame or its connection is gone, then lets the engine
   quiesce. Never swallows exceptions: anything escaping the engine is
   the caller's invariant violation. *)
let run_chaos ?(max_ticks = 50_000) engine ~target clients =
  let module Ev = S.Evloop in
  let states =
    List.map
      (fun cc ->
        match Ev.open_conn engine with
        | None -> failwith "chaos: engine refused a connection"
        | Some id ->
            (match cc.cc_fname with
            | Some f ->
                Ev.feed engine id
                  (S.Proto.encode_command
                     (S.Proto.Cstream
                        (S.Proto.request ~client:"chaos" ~target f))
                  ^ "\n")
            | None -> ());
            ( cc,
              id,
              Buffer.create 128,
              ref 0 (* stmts *),
              ref None (* final *),
              ref false (* cancel sent *),
              ref false (* eof sent *),
              ref false (* dead: killed or reaped *) ))
      clients
  in
  let boundary at ~stmts ~fired =
    match at with
    | Some k when (not !fired) && !stmts >= k ->
        fired := true;
        true
    | _ -> false
  in
  let live (_, id, _, _, final, _, _, dead) =
    (not !dead) && !final = None && Ev.conn_phase engine id <> None
  in
  let ticks = ref 0 in
  while List.exists live states && !ticks < max_ticks do
    incr ticks;
    Ev.tick engine;
    List.iter
      (fun ((cc, id, buf, stmts, final, cancelled, eofed, dead) as st) ->
        if live st then begin
          if boundary cc.cc_kill_at ~stmts ~fired:dead then
            Ev.peer_reset engine id
          else begin
            if boundary cc.cc_eof_at ~stmts ~fired:eofed then
              Ev.close_input engine id;
            if boundary cc.cc_cancel_at ~stmts ~fired:cancelled then
              Ev.feed engine id (S.Proto.encode_command S.Proto.Ccancel ^ "\n");
            Buffer.add_string buf (Ev.take_output engine id ~max:cc.cc_budget);
            let s = Buffer.contents buf in
            Buffer.clear buf;
            let rec go = function
              | [] -> ()
              | [ partial ] -> Buffer.add_string buf partial
              | line :: rest ->
                  (* a silent (request-less) connection is in plain
                     mode: its typed shed arrives as a reply line, not
                     a frame *)
                  (if cc.cc_fname = None then
                     match S.Proto.decode_reply line with
                     | S.Proto.Decoded r -> final := Some r
                     | S.Proto.Version_skew _ | S.Proto.Malformed ->
                         failwith ("chaos: unparseable reply: " ^ line)
                   else
                     match S.Proto.decode_frame line with
                     | S.Proto.Decoded (S.Proto.Fstmt _) -> incr stmts
                     | S.Proto.Decoded (S.Proto.Ffinal r) -> final := Some r
                     | S.Proto.Version_skew _ | S.Proto.Malformed ->
                         failwith ("chaos: unparseable frame: " ^ line));
                  go rest
            in
            go (String.split_on_char '\n' s)
          end
        end)
      states;
    ignore (Ev.reap engine)
  done;
  if !ticks >= max_ticks then failwith "chaos: schedule did not converge";
  for _ = 1 to 20 do
    Ev.tick engine;
    ignore (Ev.reap engine)
  done;
  List.map
    (fun (cc, _, _, stmts, final, _, _, _) ->
      { cr_fname = cc.cc_fname; cr_stmts = !stmts; cr_final = !final })
    states

let run (cx : Ctx.t) =
  let { Ctx.sink; target; seed; run_dir; pipeline = t; decoder;
        fnames = stream_fnames; _ } =
    cx
  in
  let scenario = Sink.scenario sink and check = Sink.check sink in
  let violation fmt = Sink.violation sink fmt in
  let info fmt = Sink.info sink fmt in
  let render = Ctx.render and clear = Ctx.clear in
  let module Ev = S.Evloop in
  let scfg = Ctx.server_config ~burst:1.0e9 in
  let stream_server ?run_dir ?resume ?(dec = decoder) () =
    match
      S.Server.create ~config:scfg ?run_dir ?resume t ~target ~decoder:dec
    with
    | Ok s -> s
    | Error e -> failwith ("stream chaos: server create failed: " ^ e)
  in
  let ecfg =
    {
      Ev.ev_slots = 2;
      (* every stream admits: queue-full shedding is the engine
         tests' concern, not this chaos matrix's *)
      ev_wait_cap = List.length stream_fnames + 1;
      ev_max_conns = List.length stream_fnames + 8;
      ev_steps_per_tick = 1;
      ev_idle_ticks = 50;
      ev_stall_ticks = 4;
      ev_wbuf_limit = 192;
    }
  in
  (* clean reference: every function decoded on an undisturbed
     server, rendered in canonical bundle order — the bit-identity
     yardstick for the kill/resume scenario. Also yields the
     busiest function, the one with the most room to cancel in. *)
  let mkreq = S.Proto.request ~client:"chaos" ~target in
  let expect_all, busiest =
    let srv = stream_server () in
    List.iter
      (fun f ->
        match S.Server.request srv (mkreq f) with
        | S.Proto.Done _ -> ()
        | r ->
            violation "stream chaos: reference decode of %s failed (%s)" f
              (S.Proto.encode_reply r))
      stream_fnames;
    let gfs = S.Server.functions srv in
    let busiest =
      List.fold_left
        (fun (n, f) (gf : Vega.Generate.gen_func) ->
          let m = List.length gf.Vega.Generate.gf_stmts in
          if m > n then (m, gf.Vega.Generate.gf_fname) else (n, f))
        (0, "") gfs
    in
    let r = render gfs in
    S.Server.drain srv;
    (r, busiest)
  in
  (* run one scenario twice and require byte-equal decision logs;
     any exception out of the engine is itself a violation. [verify]
     gets a check that prefixes the scenario name. *)
  let twice name plan verify =
    scenario name;
    match
      let go () =
        let made = plan () in
        let srv, cfg, clients, finish = made in
        let e = Ev.create ~cfg srv in
        let res = run_chaos e ~target clients in
        let logbytes = Ev.log e in
        let st = Ev.stats e in
        let extra = finish srv e in
        S.Server.drain srv;
        (res, logbytes, st, extra)
      in
      (go (), go ())
    with
    | exception exn ->
        violation "%s: escaped the event loop: %s" name
          (Printexc.to_string exn)
    | (res1, log1, st1, extra1), (res2, log2, st2, _) ->
        let check what = check (name ^ ": " ^ what) in
        let finals =
          List.map (fun r -> Option.map S.Proto.encode_reply r.cr_final)
        in
        check "decision log byte-equal across twin runs" (log1 = log2);
        check "twin runs reach the same finals" (finals res1 = finals res2);
        check "twin runs agree on engine stats" (st1 = st2);
        verify check res1 st1 extra1
  in

  (* -- cancel-storm: a seeded subset of concurrent streams cancels
     mid-decode; cancelled slots must free (the storm converges),
     nothing is lost, and re-requesting a cancelled function decodes
     it fresh exactly once -- *)
  let cancel_plan =
    let inj =
      R.Inject.create ~every:2 ~seed R.Inject.Cancel_mid_decode
    in
    R.Inject.cancel_schedule inj
      ~streams:(List.length stream_fnames)
      ~max_stmt:3
  in
  twice "stream cancel-storm"
    (fun () ->
      let srv = stream_server () in
      let clients =
        List.mapi
          (fun i f ->
            {
              (chaos_plain f) with
              cc_cancel_at = List.assoc_opt i cancel_plan;
            })
          stream_fnames
      in
      (srv, ecfg, clients, fun srv _ -> S.Server.health srv))
    (fun check res st h ->
      check "every stream answered exactly once"
        (List.for_all (fun r -> r.cr_final <> None) res);
      check "unscheduled streams all complete"
        (List.for_all
           (fun (i, r) ->
             match (List.assoc_opt i cancel_plan, r.cr_final) with
             | None, Some (S.Proto.Done d) ->
                 Some d.r_fname = r.cr_fname
             | None, _ -> false
             | Some _, Some (S.Proto.Done _ | S.Proto.Rejected
                 (S.Proto.Cancelled _)) ->
                 true
             | Some _, _ -> false)
           (List.mapi (fun i r -> (i, r)) res));
      check "cancellations landed" (st.Ev.ev_cancelled >= 1);
      check "every slot freed" (h.S.Health.h_busy = 0);
      check "journal lag settled to zero" (h.S.Health.h_journal_lag = 0);
      info "%d stream(s), %d cancelled, %d completed"
        (List.length res) st.Ev.ev_cancelled
        (st.Ev.ev_finished - st.Ev.ev_cancelled));
  (* a cancelled function re-requested on the same server decodes
     fresh — cancellation neither caches a partial result nor
     double-decodes a finished one *)
  (match busiest with
  | 0, _ -> violation "cancel-storm: no busiest function to cancel"
  | _, f ->
      let calls = ref 0 in
      let dec fv =
        incr calls;
        decoder fv
      in
      let srv = stream_server ~dec () in
      let e = Ev.create ~cfg:ecfg srv in
      let res =
        run_chaos e ~target
                    [ { (chaos_plain f) with cc_cancel_at = Some 1 } ]
      in
      let after_cancel = !calls in
      (match (res, S.Server.request srv (mkreq f)) with
      | ( [ { cr_final = Some (S.Proto.Rejected (S.Proto.Cancelled _)); _ } ],
          S.Proto.Done d ) ->
          check "cancel-storm: re-request decodes fresh"
            ((not d.r_resumed) && !calls > after_cancel)
      | _ ->
          violation
            "cancel-storm: cancelled function did not regenerate cleanly");
      S.Server.drain srv);

  (* -- slow-loris shed: a seeded subset of peers reads at a crawl
     and one connects without ever sending a request. Stalled
     readers are shed with typed [Slow_reader], the silent peer
     with [Idle_timeout]; everyone else completes -- *)
  let slow_plan =
    let inj = R.Inject.create ~every:2 ~seed R.Inject.Slow_client in
    R.Inject.slow_clients inj ~conns:(List.length stream_fnames)
  in
  twice "stream slow-loris shed"
    (fun () ->
      let srv = stream_server () in
      let clients =
        List.mapi
          (fun i f ->
            match List.assoc_opt i slow_plan with
            | Some budget -> chaos_plain ~budget f
            | None -> chaos_plain f)
          stream_fnames
        @ [
            (* the loris: connects, never sends a request *)
            { (chaos_plain "") with cc_fname = None };
          ]
      in
      (srv, ecfg, clients, fun srv _ -> S.Server.health srv))
    (fun check res st h ->
      check "every peer answered exactly once"
        (List.for_all (fun r -> r.cr_final <> None) res);
      check "every verdict typed Done/Slow_reader"
        (List.for_all
           (fun r ->
             match (r.cr_fname, r.cr_final) with
             | Some _, Some (S.Proto.Done _) -> true
             | Some _, Some (S.Proto.Rejected (S.Proto.Slow_reader _)) ->
                 true
             | None, Some (S.Proto.Rejected (S.Proto.Idle_timeout _)) ->
                 true
             | _ -> false)
           res);
      check "at least one slow reader shed" (st.Ev.ev_shed_slow >= 1);
      check "the silent peer idle-shed" (st.Ev.ev_idle_closed = 1);
      check "every slot freed" (h.S.Health.h_busy = 0);
      info "%d peer(s): %d shed slow, %d idle-shed, %d completed"
        (List.length res) st.Ev.ev_shed_slow st.Ev.ev_idle_closed
        (st.Ev.ev_finished - st.Ev.ev_cancelled));

  (* -- mid-stream kill/resume: durable serve, a seeded subset of
     peers half-closes or hard-disconnects mid-decode; a resumed
     server restores every sealed function without re-decoding and
     regenerates the interrupted ones bit-identical to a clean
     reference -- *)
  let eof_plan =
    let inj = R.Inject.create ~every:2 ~seed R.Inject.Conn_half_close in
    R.Inject.half_close_at inj
      ~streams:(List.length stream_fnames)
      ~max_stmt:2
  in
  let kill_dir = ref 0 in
  twice "stream mid-stream kill/resume"
    (fun () ->
      incr kill_dir;
      let dir =
        Filename.concat run_dir (Printf.sprintf "stream%d" !kill_dir)
      in
      clear dir;
      let srv = stream_server ~run_dir:dir () in
      let clients =
        List.mapi
          (fun i f ->
            match List.assoc_opt i eof_plan with
            | Some at when i mod 4 = 0 ->
                (* every fourth victim vanishes outright *)
                { (chaos_plain f) with cc_kill_at = Some at }
            | Some at -> { (chaos_plain f) with cc_eof_at = Some at }
            | None -> chaos_plain f)
          stream_fnames
      in
      ( srv,
        ecfg,
        clients,
        fun srv _ ->
          let h = S.Server.health srv in
          S.Server.drain srv;
          (* resume: sealed functions restore, interrupted ones
             regenerate — nothing decodes twice *)
          let calls = ref 0 in
          let dec fv =
            incr calls;
            decoder fv
          in
          let rsrv = stream_server ~run_dir:dir ~resume:true ~dec () in
          let restored = S.Server.resumed_functions rsrv in
          let replies =
            List.map
              (fun f ->
                S.Server.request rsrv (mkreq f))
              stream_fnames
          in
          let got = render (S.Server.functions rsrv) in
          S.Server.drain rsrv;
          (h, restored, replies, got, !calls) ))
    (fun check res st (h, restored, replies, got, rcalls) ->
      let name = "stream mid-stream kill/resume" in
      (* an interruption scheduled past a short function's end is a
         no-op, so the engine's typed-cancel count is the truth;
         the twin-run equality checks already pin it to the seed *)
      let interrupted = st.Ev.ev_cancelled in
      check "interruptions landed"
        (interrupted >= 1 && interrupted <= List.length eof_plan);
      check "every slot freed before drain" (h.S.Health.h_busy = 0);
      check "journal lag settled to zero" (h.S.Health.h_journal_lag = 0);
      check "sealed functions restored on resume"
        (restored = List.length stream_fnames - interrupted);
      let resumed_replies, regenerated = List.partition Ctx.resumed replies in
      check "every reply Done after resume" (Ctx.all_done replies);
      check
        "restored functions answer without re-decoding, interrupted ones \
         regenerate"
        (List.length resumed_replies = restored
        && List.length regenerated = interrupted);
      check "interrupted functions decoded on resume" (rcalls >= 1);
      if got <> expect_all then
        violation
          "%s: resumed output differs from the clean reference" name
      else
        info
          "%d stream(s), %d interrupted, %d restored, output \
           bit-identical after resume"
          (List.length res) interrupted restored)
