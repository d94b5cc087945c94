(* The injection matrix: decoder, corpus, description-file, fuel and
   breaker faults against one generation run each, then the serving
   layer (overload, deadlines, drain/kill/resume). *)

module R = Vega_robust
module S = Vega_serve

let run (cx : Ctx.t) =
  let { Ctx.sink; target; profile = p; seed; run_dir; domains; cfg;
        pipeline = t; decoder; _ } =
    cx
  in
  let scenario = Sink.scenario sink and check = Sink.check sink in
  let violation fmt = Sink.violation sink fmt in
  let info fmt = Sink.info sink fmt in
  let render = Ctx.render and clear = Ctx.clear in
  (* ---- baseline: no injection -> no faults, no degradation, and the
     report plumbing itself must not change the generated output ---- *)
  scenario "baseline (no injection)";
  let base_report = R.Report.create () in
  let baseline =
    Vega.Pipeline.generate_backend ~report:base_report t ~target ~decoder
  in
  check "baseline: no faults" (R.Report.total base_report = 0);
  check "baseline: no degraded statements"
    (R.Report.degraded_count base_report = 0);
  check "baseline: every statement on the primary rung"
    (List.for_all
       (fun (s : Vega.Generate.gen_stmt) ->
         s.Vega.Generate.g_level = R.Degrade.Primary)
       (Ctx.stmts baseline));
  let plain = Vega.Pipeline.generate_backend t ~target ~decoder in
  check "baseline: identical to the plain decoder path"
    (List.map Vega.Generate.source_of_all plain
    = List.map Vega.Generate.source_of_all baseline);

  (* ---- parallel determinism: fanning the functions over a domain
     pool must not change a single bit of the output ---- *)
  if domains > 1 then begin
    scenario (Printf.sprintf "parallel determinism (%d domains)" domains);
    let par = Vega.Pipeline.generate_backend ~domains t ~target ~decoder in
    let conf_bits =
      List.map (fun (gf : Vega.Generate.gen_func) ->
          Int64.bits_of_float gf.Vega.Generate.gf_confidence)
    in
    check
      (Printf.sprintf "parallel: %d-domain run identical to sequential"
         domains)
      (List.map Vega.Generate.source_of_all par
       = List.map Vega.Generate.source_of_all plain
      && conf_bits par = conf_bits plain)
  end;
  let key (gf : Vega.Generate.gen_func) (s : Vega.Generate.gen_stmt) =
    ( gf.Vega.Generate.gf_fname,
      s.Vega.Generate.g_col,
      s.Vega.Generate.g_line,
      s.Vega.Generate.g_inst )
  in
  let base_stmts = Hashtbl.create 512 in
  List.iter
    (fun (gf : Vega.Generate.gen_func) ->
      List.iter
        (fun (s : Vega.Generate.gen_stmt) ->
          Hashtbl.replace base_stmts (key gf s)
            (s.Vega.Generate.g_score, s.Vega.Generate.g_tokens))
        gf.Vega.Generate.gf_stmts)
    baseline;
  let in_range score = Float.is_finite score && score >= 0.0 && score <= 1.0 in
  (* shared structural invariants over an injected generation run *)
  let check_degraded_run name report (gfs : Vega.Generate.gen_func list) =
    check (name ^ ": backend function count unchanged")
      (List.length gfs = List.length baseline);
    List.iter
      (fun (s : Vega.Generate.gen_stmt) ->
        let score = s.Vega.Generate.g_score in
        let level = s.Vega.Generate.g_level in
        if not (in_range score) then
          violation "%s: non-finite or out-of-range score" name;
        if score > R.Degrade.cap level +. 1e-9 then
          violation "%s: score %.3f above the %s cap" name score
            (R.Degrade.name level))
      (Ctx.stmts gfs);
    check (name ^ ": degradations recorded for every sub-primary statement")
      (R.Report.degraded_count report
      = List.length
          (List.filter
             (fun (s : Vega.Generate.gen_stmt) ->
               s.Vega.Generate.g_level <> R.Degrade.Primary)
             (Ctx.stmts gfs)))
  in
  (* decoder-class scenarios additionally compare per-statement against
     the baseline: only injected statements may change, and confidence
     is monotonically non-increasing under degradation *)
  let check_against_baseline name (gfs : Vega.Generate.gen_func list) =
    List.iter
      (fun (gf : Vega.Generate.gen_func) ->
        List.iter
          (fun (s : Vega.Generate.gen_stmt) ->
            match Hashtbl.find_opt base_stmts (key gf s) with
            | None -> violation "%s: statement absent from baseline" name
            | Some (bscore, btokens) ->
                if s.Vega.Generate.g_score > bscore +. 1e-9 then
                  violation
                    "%s: %s confidence rose under injection (%.3f > %.3f)"
                    name gf.Vega.Generate.gf_fname s.Vega.Generate.g_score
                    bscore;
                if
                  s.Vega.Generate.g_level = R.Degrade.Primary
                  && (s.Vega.Generate.g_tokens <> btokens
                     || s.Vega.Generate.g_score <> bscore)
                then
                  violation "%s: un-injected statement changed" name)
          gf.Vega.Generate.gf_stmts)
      gfs
  in
  (* one backend generated through an injecting decoder; [k] checks it *)
  let injected_run name kind ~every ?fallback k =
    scenario name;
    let inj = R.Inject.create ~seed ~every kind in
    let report = R.Report.create () in
    let wrapped fv = R.Inject.wrap_decoder inj decoder fv in
    match
      R.Stage.protect ~stage:name (fun () ->
          Vega.Pipeline.generate_backend ?fallback ~report t ~target
            ~decoder:wrapped)
    with
    | Error f ->
        violation "%s: backend generation aborted (%s)" name
          (R.Fault.to_string f)
    | Ok gfs ->
        k inj report gfs;
        info "injected %d, %s" (R.Inject.injected inj)
          (R.Report.summary report)
  in
  let decoder_scenario name kind ~every ~expect_levels =
    injected_run name kind ~every ~fallback:decoder (fun inj report gfs ->
        check (name ^ ": at least one fault injected")
          (R.Inject.injected inj > 0);
        check (name ^ ": every injected fault observed in the report")
          (R.Report.total report = R.Inject.injected inj);
        check_degraded_run name report gfs;
        check_against_baseline name gfs;
        List.iter
          (fun lv ->
            check
              (Printf.sprintf "%s: reaches the %s rung" name
                 (R.Degrade.name lv))
              (List.exists
                 (fun (s : Vega.Generate.gen_stmt) ->
                   s.Vega.Generate.g_level = lv)
                 (Ctx.stmts gfs)))
          expect_levels)
  in
  decoder_scenario "decoder-raise" R.Inject.Decoder_raise ~every:1
    ~expect_levels:[ R.Degrade.Retrieval_fallback ];
  decoder_scenario "decoder-raise-retry" R.Inject.Decoder_raise ~every:2
    ~expect_levels:[ R.Degrade.Retry ];
  decoder_scenario "decoder-nan" R.Inject.Decoder_nan ~every:3
    ~expect_levels:[];
  decoder_scenario "decoder-garbage" R.Inject.Decoder_garbage ~every:3
    ~expect_levels:[];
  (* no fallback decoder: the ladder must bottom out in template-default
     renders (sub-threshold by construction) or flagged omissions *)
  (let name = "decoder-raise-no-fallback" in
   injected_run name R.Inject.Decoder_raise ~every:1 (fun _ report gfs ->
       check_degraded_run name report gfs;
       List.iter
         (fun (s : Vega.Generate.gen_stmt) ->
           match s.Vega.Generate.g_level with
           | R.Degrade.Template_default | R.Degrade.Omitted -> ()
           | lv ->
               violation "%s: unexpected %s statement" name (R.Degrade.name lv))
         (Ctx.stmts gfs);
       check (name ^ ": no statement passes the accept threshold")
         (List.for_all (fun gf -> Vega.Generate.kept_stmts gf = []) gfs)));

  (* prepare, train and generate over a damaged corpus; [k] checks it *)
  let regenerate name ~report corpus k =
    match
      R.Stage.protect ~stage:name (fun () ->
          let prep = Vega.Pipeline.prepare ~report ~corpus () in
          let t = Vega.Pipeline.train cfg prep in
          Vega.Pipeline.generate_backend ~report t ~target
            ~decoder:(Vega.Pipeline.retrieval_decoder t))
    with
    | Error f ->
        violation "%s: pipeline aborted (%s)" name (R.Fault.to_string f)
    | Ok gfs -> k gfs
  in

  (* ---- corpus corruption: prepare must drop only the mangled impls,
     record each one, and generation must still cover every group ---- *)
  (let name = "corpus-corruption" in
   scenario name;
   let inj = R.Inject.create ~seed ~every:5 R.Inject.Corpus_mangle in
   let corpus = R.Inject.corrupt_corpus inj (Vega_corpus.Corpus.build ()) in
   let report = R.Report.create () in
   regenerate name ~report corpus (fun gfs ->
       check (name ^ ": at least one group corrupted")
         (R.Inject.injected inj > 0);
       check (name ^ ": every corrupted impl observed in the report")
         (R.Report.count_class report R.Fault.Ccorpus = R.Inject.injected inj);
       check_degraded_run name report gfs;
       info "injected %d, %s" (R.Inject.injected inj)
         (R.Report.summary report)));

  (* ---- description-file corruption: scan detects every corrupted
     file; the pipeline runs through on the damaged VFS ---- *)
  (let name = "descfile-corruption" in
   scenario name;
   let inj = R.Inject.create ~seed ~every:2 R.Inject.Descfile_garbage in
   let corpus = Vega_corpus.Corpus.build () in
   let corrupted =
     R.Inject.corrupt_descfiles inj corpus.Vega_corpus.Corpus.vfs ~target
   in
   let report = R.Report.create () in
   let scanned =
     R.Inject.scan_vfs ~report corpus.Vega_corpus.Corpus.vfs ~target
   in
   check (name ^ ": at least one file corrupted") (corrupted <> []);
   check (name ^ ": scan detects every corrupted file")
     (List.length scanned = List.length corrupted
     && R.Report.count_class report R.Fault.Cdescfile = List.length corrupted);
   regenerate name ~report corpus (fun gfs ->
       check (name ^ ": backend function count unchanged")
         (List.length gfs = List.length baseline);
       List.iter
         (fun (s : Vega.Generate.gen_stmt) ->
           if not (in_range s.Vega.Generate.g_score) then
             violation "%s: out-of-range score" name)
         (Ctx.stmts gfs);
       info "corrupted %d file(s), %s"
         (List.length corrupted) (R.Report.summary report)));

  (* ---- interpreter fuel: the dedicated exception classifies as a
     timeout fault, never as a generic stage failure ---- *)
  (let name = "interp-fuel" in
   scenario name;
   let report = R.Report.create () in
   let f =
     Vega_srclang.Parser.parse_function
       "int spin() { while (true) { int x = 1; } return 0; }"
   in
   let env = Vega_srclang.Interp.create_env () in
   (match
      R.Stage.protect ~report ~stage:name (fun () ->
          Vega_srclang.Interp.call ~fuel:256 env f [])
    with
   | Error (R.Fault.Interp_fuel_exhausted { fuel = 256 }) -> ()
   | Error f ->
       violation "%s: misclassified as %s" name (R.Fault.to_string f)
   | Ok _ -> violation "%s: expected fuel exhaustion" name);
   check (name ^ ": observed in the report")
     (R.Report.count_class report R.Fault.Cinterp_fuel = 1);
   info "%s" (R.Report.summary report));

  (* ---- simulator fuel + trap: dedicated Timeout status, and traps
     keep their own class ---- *)
  (let name = "sim-fuel" in
   scenario name;
   let report = R.Report.create () in
   let vfs = t.Vega.Pipeline.prep.Vega.Pipeline.corpus.Vega_corpus.Corpus.vfs in
   let _, conv = Vega_eval.Refbackend.backend_for vfs p in
   let case =
     match Vega_ir.Programs.find "loop_sum" with
     | Some c -> c
     | None -> failwith "loop_sum regression case missing"
   in
   let out =
     Vega_backend.Compiler.compile conv ~opt:Vega_backend.Compiler.O0
       (Vega_ir.Programs.modul_of case)
   in
   let r =
     Vega_sim.Machine.run ~fuel:16 conv out.Vega_backend.Compiler.emitted
       ~entry:case.Vega_ir.Programs.entry ~args:case.Vega_ir.Programs.args
   in
   (match r.Vega_sim.Machine.status with
   | Vega_sim.Machine.Timeout f ->
       R.Report.record report ~stage:name
         (R.Fault.Sim_fuel_exhausted { fuel = f })
   | Vega_sim.Machine.Finished _ ->
       violation "%s: expected a timeout, simulation finished" name
   | Vega_sim.Machine.Trap m ->
       violation "%s: fuel exhaustion misclassified as trap (%s)" name m);
   check (name ^ ": observed in the report")
     (R.Report.count_class report R.Fault.Csim_fuel = 1);
   let r2 =
     Vega_sim.Machine.run conv out.Vega_backend.Compiler.emitted
       ~entry:"__no_such_entry__" ~args:[]
   in
   (match r2.Vega_sim.Machine.status with
   | Vega_sim.Machine.Trap m ->
       R.Report.record report ~stage:"sim-trap" (R.Fault.Sim_trap { message = m })
   | _ -> violation "sim-trap: expected a trap on an unknown entry point");
   check "sim-trap: observed in the report"
     (R.Report.count_class report R.Fault.Csim_trap = 1);
   info "%s" (R.Report.summary report));

  (* ---- circuit breaker under a permanently failing decoder: the run
     must complete in bounded time with the breaker open, every
     statement landing on a fallback rung of the ladder ---- *)
  (let name = "breaker-permafail" in
   scenario name;
   let scfg =
     {
       R.Supervisor.default_config with
       R.Supervisor.breaker_threshold = 3;
       breaker_cooldown = 4;
       max_retries = 1;
       backoff_base_s = 0.001;
       backoff_max_s = 0.004;
       func_deadline_s = 300.0;
     }
   in
   let slept = ref 0.0 in
   let sup = R.Supervisor.create ~sleep:(fun d -> slept := !slept +. d) scfg in
   let calls = ref 0 in
   let permafail _fv =
     incr calls;
     raise
       (R.Fault.Fault
          (R.Fault.Decoder_failure
             {
               fname = "*";
               stage = "primary";
               message = "permanently failing decoder";
             }))
   in
   let report = R.Report.create () in
   match
     R.Stage.protect ~stage:name (fun () ->
         Vega.Pipeline.generate_backend ~fallback:decoder ~report ~sup t
           ~target ~decoder:permafail)
   with
   | Error f ->
       violation "%s: backend generation aborted (%s)" name
         (R.Fault.to_string f)
   | Ok gfs ->
       let st = R.Supervisor.stats sup in
       check (name ^ ": breaker opened")
         (st.R.Supervisor.sup_breaker_opened > 0);
       check (name ^ ": open breaker short-circuits decode calls")
         (st.R.Supervisor.sup_breaker_skips > 0);
       let stmts =
         List.concat_map
           (fun (gf : Vega.Generate.gen_func) -> gf.Vega.Generate.gf_stmts)
           gfs
       in
       check (name ^ ": backend function count unchanged")
         (List.length gfs = List.length baseline);
       check (name ^ ": every statement lands on a fallback rung")
         (List.for_all
            (fun (s : Vega.Generate.gen_stmt) ->
              match s.Vega.Generate.g_level with
              | R.Degrade.Retrieval_fallback | R.Degrade.Template_default
              | R.Degrade.Omitted ->
                  true
              | _ -> false)
            stmts);
       check (name ^ ": no score above the retrieval-fallback cap")
         (List.for_all
            (fun (s : Vega.Generate.gen_stmt) ->
              s.Vega.Generate.g_score
              <= R.Degrade.cap R.Degrade.Retrieval_fallback +. 1e-9)
            stmts);
       (* bounded wall clock: the open breaker skips decode attempts
          outright, and every backoff sleep is capped *)
       let ladder_attempts = 2 * List.length stmts in
       check (name ^ ": decode attempts bounded below ladder attempts")
         (!calls < ladder_attempts);
       check (name ^ ": accumulated backoff bounded")
         (!slept
         <= (float_of_int st.R.Supervisor.sup_retried *. scfg.R.Supervisor.backoff_max_s)
            +. 1e-9);
       info
         "breaker: opened %d time(s), %d skip(s), %d retry(s), %d of %d \
          decode attempts made, %.3fs backoff"
         st.R.Supervisor.sup_breaker_opened st.R.Supervisor.sup_breaker_skips
         st.R.Supervisor.sup_retried !calls ladder_attempts !slept);

  (* ---- serving layer ---- *)
  let serve_fnames = cx.Ctx.fnames in
  check "corpus has function templates to serve" (serve_fnames <> []);

  (* overload at 4x queue capacity: the bounded queue sheds instead of
     growing, and — the workers being paused while the seeded storm
     submits — the accept/reject sequence is a pure function of the
     submission order, so equal seeds give equal sequences ---- *)
  (let name = "serve-overload" in
   scenario name;
   let cap = 4 in
   let n = 4 * cap in
   let scfg = Ctx.server_config ~queue_cap:cap ~burst:(float_of_int (2 * n)) in
   let storm = R.Inject.create ~seed R.Inject.Queue_storm in
   let order = R.Inject.storm_order storm n in
   let run_once () =
     match S.Server.create ~config:scfg ~paused:true t ~target ~decoder with
     | Error e -> Error e
     | Ok srv ->
         let tickets =
           List.map
             (fun i ->
               S.Server.submit srv
                 (S.Proto.request ~target
                    ~client:(Printf.sprintf "c%d" (i mod 3))
                    (List.nth serve_fnames (i mod List.length serve_fnames))))
             order
         in
         let seq =
           String.concat ""
             (List.map
                (function
                  | Ok _ -> "A"
                  | Error (S.Proto.Queue_full _) -> "S"
                  | Error _ -> "R")
                tickets)
         in
         S.Server.resume_workers srv;
         let replies =
           List.filter_map
             (function
               | Ok tk -> Some (S.Server.await tk) | Error _ -> None)
             tickets
         in
         S.Server.drain srv;
         Ok (seq, replies, S.Server.health srv)
   in
   match (run_once (), run_once ()) with
   | Error e, _ | _, Error e ->
       violation "%s: server creation failed (%s)" name e
   | Ok (seq1, replies1, h1), Ok (seq2, _, _) ->
       check (name ^ ": queue never grows past its cap")
         (h1.S.Health.h_accepted = cap
         && h1.S.Health.h_rejected = n - cap);
       check (name ^ ": same seed, same accept/reject sequence")
         (seq1 = seq2);
       let dones =
         List.length
           (List.filter
              (function S.Proto.Done _ -> true | _ -> false)
              replies1)
       in
       check (name ^ ": sheds + successes account for every request")
         (h1.S.Health.h_rejected + dones = n);
       check (name ^ ": drained server is stopped, empty and idle")
         (h1.S.Health.h_state = S.Health.Stopped
         && h1.S.Health.h_queue_depth = 0
         && h1.S.Health.h_busy = 0
         && h1.S.Health.h_journal_lag = 0);
       info "sequence %s; %d shed, %d done" seq1 h1.S.Health.h_rejected
         dones);

  (* ---- per-request deadline on a stalled decoder: the supervisor
     budget fires and the ladder degrades the statement — the request
     completes (capped) instead of hanging; a request whose deadline
     lapses while queued is rejected at dequeue ---- *)
  (let name = "serve-deadline" in
   scenario name;
   let vnow = ref 0.0 in
   let scfg =
     {
       (Ctx.server_config ~queue_cap:(List.length serve_fnames + 4)
          ~burst:1000.0)
       with
       S.Server.deadline_ms = 50;
     }
   in
   let inj = R.Inject.create ~seed ~every:1 R.Inject.Decoder_stall in
   let stalling fv =
     R.Inject.wrap_stalling_decoder inj
       ~stall:(fun () -> vnow := !vnow +. 1.0)
       decoder fv
   in
   let mk = S.Proto.request ~client:"dl" ~target in
   (match
      S.Server.create ~config:scfg
        ~now:(fun () -> !vnow)
        ~sleep:(fun d -> vnow := !vnow +. d)
        ~fallback:decoder t ~target ~decoder:stalling
    with
   | Error e -> violation "%s: server creation failed (%s)" name e
   | Ok srv ->
       let replies =
         List.map (fun f -> S.Server.request srv (mk f)) serve_fnames
       in
       check (name ^ ": every request completes (no hang)")
         (Ctx.all_done replies);
       check (name ^ ": at least one reply reports degraded statements")
         (List.exists
            (function
              | S.Proto.Done d -> d.r_degraded > 0 | _ -> false)
            replies);
       List.iter
         (fun (s : Vega.Generate.gen_stmt) ->
           let level = s.Vega.Generate.g_level in
           if s.Vega.Generate.g_score > R.Degrade.cap level +. 1e-9 then
             violation "%s: score above the %s cap" name (R.Degrade.name level))
         (Ctx.stmts (S.Server.functions srv));
       S.Server.drain srv;
       let h = S.Server.health srv in
       check (name ^ ": supervisor deadline fired")
         (h.S.Health.h_deadline_hits > 0);
       info "%d deadline hit(s) across %d request(s)"
         h.S.Health.h_deadline_hits (List.length replies));
   (* expiry in queue: while the first request's stalled execution burns
      the clock, the second sits queued past its deadline *)
   match
     S.Server.create ~config:scfg ~paused:true
       ~now:(fun () -> !vnow)
       ~sleep:(fun d -> vnow := !vnow +. d)
       ~fallback:decoder t ~target ~decoder:stalling
   with
   | Error e -> violation "%s: expiry server creation failed (%s)" name e
   | Ok srv -> (
       let first = S.Server.submit srv (mk (List.hd serve_fnames)) in
       let second = S.Server.submit srv (mk (List.hd serve_fnames)) in
       S.Server.resume_workers srv;
       match (first, second) with
       | Ok k1, Ok k2 ->
           let r1 = S.Server.await k1 and r2 = S.Server.await k2 in
           check (name ^ ": first request completes")
             (match r1 with S.Proto.Done _ -> true | _ -> false);
           check
             (name
            ^ ": request queued past its deadline is rejected as expired")
             (match r2 with
             | S.Proto.Rejected (S.Proto.Expired _) -> true
             | _ -> false);
           S.Server.drain srv
       | _ ->
           violation "%s: expiry submissions were rejected" name;
           S.Server.drain srv));

  (* ---- durable serving: drain checkpoints, a kill mid-request loses
     nothing durable, and a restarted server resumes to bit-identical
     output ---- *)
  (let name = "serve-drain-kill-resume" in
   scenario name;
   let dcfg =
     Ctx.server_config ~queue_cap:(List.length serve_fnames + 4) ~burst:1000.0
   in
   let mk = S.Proto.request ~client:"kr" ~target in
   let ref_dir = Filename.concat run_dir "serve-ref" in
   clear ref_dir;
   match S.Server.create ~config:dcfg ~run_dir:ref_dir t ~target ~decoder with
   | Error e -> violation "%s: reference server failed (%s)" name e
   | Ok srv -> (
       let replies =
         List.map (fun f -> S.Server.request srv (mk f)) serve_fnames
       in
       check (name ^ ": reference run completes every request")
         (Ctx.all_done replies);
       let records = (S.Server.health srv).S.Health.h_journal_records in
       let expect = render (S.Server.functions srv) in
       S.Server.drain srv;
       check (name ^ ": drain leaves a loadable checkpoint")
         (match
            R.Checkpoint.load
              ~path:(Vega.Pipeline.checkpoint_path ref_dir)
          with
         | Ok c ->
             List.length c.R.Checkpoint.c_funcs
             = List.length serve_fnames
         | Error _ -> false);
       let kinj = R.Inject.create ~seed R.Inject.Request_kill in
       (* clamp past the midpoint so at least one function is durably
          complete when the crash lands *)
       let k = max (R.Inject.kill_offset kinj ~records) (records / 2) in
       let dir = Filename.concat run_dir "serve-kill" in
       clear dir;
       match
         S.Server.create ~config:dcfg ~run_dir:dir ~kill_at:k t ~target
           ~decoder
       with
       | Error e -> violation "%s: killed server failed (%s)" name e
       | Ok ksrv -> (
           let tickets =
             List.map (fun f -> S.Server.submit ksrv (mk f)) serve_fnames
           in
           (match S.Server.drain ksrv with
           | () -> violation "%s: kill-at %d never fired" name k
           | exception R.Journal.Killed n -> Ctx.check_kill cx name k n);
           (* every accepted request was answered (crash or flush) *)
           List.iter
             (function
               | Ok tk -> ignore (S.Server.await tk) | Error _ -> ())
             tickets;
           if k > 1 then
             R.Journal.tear ~path:(Vega.Pipeline.journal_path dir);
           match
             S.Server.create ~config:dcfg ~run_dir:dir ~resume:true t
               ~target ~decoder
           with
           | Error e -> violation "%s: resume failed (%s)" name e
           | Ok rsrv ->
               let restored = S.Server.resumed_functions rsrv in
               check
                 (name ^ ": at least one function restored from the journal")
                 (restored > 0);
               let replies =
                 List.map (fun f -> S.Server.request rsrv (mk f)) serve_fnames
               in
               check (name ^ ": resumed run completes every request")
                 (Ctx.all_done replies);
               check (name ^ ": restored functions reply as resumed")
                 (List.exists Ctx.resumed replies);
               let got = render (S.Server.functions rsrv) in
               S.Server.drain rsrv;
               if got <> expect then
                 violation
                   "%s: resumed output differs from the uninterrupted run \
                    (kill-at %d)"
                   name k
               else
                 info "kill-at %d: bit-identical after restart (%d restored)"
                   k restored)))
