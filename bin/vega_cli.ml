(* vega-cli: command-line front end to the reproduction.

     vega-cli stats
     vega-cli generate -t RISCV -f getRelocType [--model]
     vega-cli generate -t RISCV --run-dir d   durable whole-backend run
     vega-cli generate -t RISCV --resume d    resume an interrupted run
     vega-cli generate ... --domains N        fan functions over N domains
     vega-cli backend -t XCore [--model]      generate + pass@1 the backend
     vega-cli lint -t RISCV [--generated] [--json]
     vega-cli verify [-t T|all] [--generated] [--json]
                                              semantic verifier (absint)
     vega-cli faultcheck [-t T] [--seed N] [--json]   fault-injection suite
     vega-cli faultcheck [--kill-at K] [--shard-kill] [--chaos-soak]
                         [--stream-chaos] [--run-dir d] [--domains N]
                                              only the selected groups
     vega-cli serve [--socket P] [--domains N] [--queue-cap K]
                    [--deadline-ms D] [--run-dir d [--resume]]
                                              resilient serving daemon
     vega-cli request [--socket P] -f NAME [--health|--drain|--ping]
     vega-cli compile -t ARM -p fib -o O3 [--run]                          *)

open Cmdliner

(* JSON-lines emission, shared with the faultcheck report *)
let json_str = Vega_chaos.Sink.json_str
let json_obj = Vega_chaos.Sink.json_obj

let json_flag =
  let doc = "Emit machine-readable output: one JSON record per line." in
  Arg.(value & flag & info [ "json" ] ~doc)

let mk_pipeline ~model =
  let prep = Vega.Pipeline.prepare () in
  let cfg =
    if model then Vega.Pipeline.default_config
    else
      {
        Vega.Pipeline.default_config with
        train_cfg = { Vega.Codebe.tiny_train_config with epochs = 0 };
      }
  in
  let t = Vega.Pipeline.train cfg prep in
  let decoder =
    if model then Vega.Pipeline.model_decoder t
    else Vega.Pipeline.retrieval_decoder t
  in
  (t, decoder)

let target_arg =
  let doc = "Target name (RISCV, RI5CY, XCore, or any training target)." in
  Arg.(value & opt string "RISCV" & info [ "t"; "target" ] ~doc)

let model_flag =
  let doc = "Fine-tune the CodeBE transformer (minutes); default uses the \
             fast retrieval decoder." in
  Arg.(value & flag & info [ "model" ] ~doc)

let domains_arg =
  let doc =
    "Fan backend generation over $(docv) domains (a fixed-size pool; output \
     is bit-identical to the sequential run). Default 1."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~doc ~docv:"N")

let stats_cmd =
  let run () =
    let corpus = Vega_corpus.Corpus.build () in
    let g, f, s = Vega_corpus.Corpus.stats corpus in
    Printf.printf
      "targets: %d training + %d held-out\n\
       function groups: %d\nfunctions: %d\nstatements: %d\n\
       description files: %d\n"
      (List.length Vega_target.Registry.training)
      (List.length Vega_target.Registry.held_out)
      g f s
      (Vega_tdlang.Vfs.size corpus.Vega_corpus.Corpus.vfs)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Corpus statistics")
    Term.(const run $ const ())

let generate_cmd =
  let fname_arg =
    Arg.(value & opt string "getRelocType" & info [ "f"; "function" ]
           ~doc:"Interface function to generate.")
  in
  let run_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "run-dir" ]
          ~doc:
            "Generate the whole backend durably under a write-ahead \
             journal in $(docv). Refuses a directory holding a previous \
             run's journal." ~docv:"DIR")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ]
          ~doc:
            "Resume the interrupted durable run in $(docv): replay its \
             journal, restore completed functions, regenerate the rest."
          ~docv:"DIR")
  in
  let run target fname model run_dir resume_dir domains =
    let t, decoder = mk_pipeline ~model in
    match (run_dir, resume_dir) with
    | None, None -> (
        match Vega.Pipeline.generate_function t ~target ~decoder ~fname with
        | Some gf ->
            Printf.printf "// confidence %.2f\n%s\n"
              gf.Vega.Generate.gf_confidence
              (Vega.Generate.source_of gf)
        | None ->
            Printf.eprintf "no function template named %s\n" fname;
            exit 1)
    | _ -> (
        let resume = resume_dir <> None in
        let dir =
          match resume_dir with Some d -> d | None -> Option.get run_dir
        in
        let sup = Vega_robust.Supervisor.create Vega_robust.Supervisor.default_config in
        let report = Vega_robust.Report.create () in
        match
          Vega.Pipeline.generate_backend_durable ~report ~sup ~resume ~domains
            ~run_dir:dir t ~target ~decoder
        with
        | Error e ->
            Printf.eprintf "durable run: %s\n" e;
            exit 1
        | Ok o ->
            List.iter
              (fun (gf : Vega.Generate.gen_func) ->
                Printf.printf "  %-28s conf %.2f  %d stmt(s)\n"
                  gf.Vega.Generate.gf_fname gf.Vega.Generate.gf_confidence
                  (List.length gf.Vega.Generate.gf_stmts))
              o.Vega.Pipeline.d_funcs;
            Printf.printf
              "durable run %s: %d function(s) — %d resumed from journal, %d \
               generated; %d record(s) appended%s%s\n"
              dir
              (List.length o.Vega.Pipeline.d_funcs)
              o.Vega.Pipeline.d_resumed o.Vega.Pipeline.d_generated
              o.Vega.Pipeline.d_records
              (if o.Vega.Pipeline.d_torn then "; torn tail recovered" else "")
              (if Vega_robust.Report.total report > 0 then
                 "; " ^ Vega_robust.Report.summary report
               else ""))
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Generate one interface function for a target, or (with \
          $(b,--run-dir)/$(b,--resume)) the whole backend under a crash-safe \
          write-ahead journal")
    Term.(
      const run $ target_arg $ fname_arg $ model_flag $ run_dir_arg
      $ resume_arg $ domains_arg)

let backend_cmd =
  let run target model =
    let t, decoder = mk_pipeline ~model in
    match Vega_target.Registry.find target with
    | None ->
        Printf.eprintf "unknown target %s\n" target;
        exit 1
    | Some p ->
        let te = Vega_eval.Metrics.evaluate_target t ~decoder p () in
        Printf.printf "%s backend: %d functions, pass@1 %.1f%%, stmt %.1f%%\n"
          target
          (List.length te.Vega_eval.Metrics.te_fns)
          (100.0 *. Vega_eval.Metrics.fn_accuracy te.Vega_eval.Metrics.te_fns)
          (100.0 *. Vega_eval.Metrics.stmt_accuracy te.Vega_eval.Metrics.te_fns);
        List.iter
          (fun (f : Vega_eval.Metrics.fn_eval) ->
            Printf.printf "  %s %-6s %-28s conf %.2f%s\n"
              (if f.fe_pass then "ok  " else "FAIL")
              (Vega_target.Module_id.name f.fe_module)
              f.fe_fname f.fe_confidence
              (match f.fe_failure with
              | Some m when not f.fe_pass -> "  [" ^ m ^ "]"
              | _ -> ""))
          te.Vega_eval.Metrics.te_fns
  in
  Cmd.v
    (Cmd.info "backend"
       ~doc:"Generate a whole backend and run pass@1 on every function")
    Term.(const run $ target_arg $ model_flag)

let lint_cmd =
  let generated_flag =
    Arg.(
      value & flag
      & info [ "generated" ]
          ~doc:
            "Lint the functions the pipeline generates for the target \
             (retrieval decoder) instead of the reference backend.")
  in
  let run target generated json =
    let targets =
      if target = "all" then Vega_target.Registry.all
      else
        match Vega_target.Registry.find target with
        | Some p -> [ p ]
        | None ->
            Printf.eprintf "unknown target %s\n" target;
            exit 1
    in
    let print_report (r : Vega_analysis.Lint.report) =
      if json then begin
        List.iter
          (fun (fr : Vega_analysis.Lint.func_report) ->
            List.iter
              (fun (d : Vega_analysis.Diagnostic.t) ->
                print_endline
                  (json_obj
                     ([
                        ("rule", json_str d.Vega_analysis.Diagnostic.rule);
                        ( "cls",
                          json_str (Vega_analysis.Diagnostic.cls_name d.cls) );
                        ( "severity",
                          json_str
                            (Vega_analysis.Diagnostic.severity_name d.severity)
                        );
                        ("fname", json_str d.fname);
                      ]
                     @ (match d.span with
                       | Some sp ->
                           [
                             ("line", string_of_int sp.Vega_srclang.Span.line);
                             ("col", string_of_int sp.Vega_srclang.Span.col);
                           ]
                       | None -> [])
                     @ [ ("msg", json_str d.msg) ])))
              fr.Vega_analysis.Lint.fr_diags)
          r.Vega_analysis.Lint.r_funcs;
        print_endline
          (json_obj
             [
               ("event", json_str "summary");
               ("target", json_str r.Vega_analysis.Lint.r_target);
               ( "functions",
                 string_of_int (List.length r.Vega_analysis.Lint.r_funcs) );
               ("diagnostics", string_of_int (Vega_analysis.Lint.diag_count r));
               ("errors", string_of_int (Vega_analysis.Lint.error_count r));
             ])
      end
      else begin
        Printf.printf "target %s: %d function(s) linted, %d diagnostic(s)\n"
          r.Vega_analysis.Lint.r_target
          (List.length r.Vega_analysis.Lint.r_funcs)
          (Vega_analysis.Lint.diag_count r);
        List.iter
          (fun (fr : Vega_analysis.Lint.func_report) ->
            List.iter
              (fun d ->
                print_endline ("  " ^ Vega_analysis.Diagnostic.to_string d))
              fr.Vega_analysis.Lint.fr_diags)
          r.Vega_analysis.Lint.r_funcs
      end;
      Vega_analysis.Lint.error_count r > 0
    in
    let report_of =
      if not generated then begin
        let corpus = Vega_corpus.Corpus.build () in
        fun (p : Vega_target.Profile.t) ->
          Vega_analysis.Lint.lint_target corpus.Vega_corpus.Corpus.vfs p
      end
      else begin
        let t, decoder = mk_pipeline ~model:false in
        fun (p : Vega_target.Profile.t) ->
          let vfs =
            t.Vega.Pipeline.prep.Vega.Pipeline.corpus.Vega_corpus.Corpus.vfs
          in
          let tab = Vega_analysis.Lint.symtab vfs p in
          let funcs =
            List.filter_map
              (fun (b : Vega.Pipeline.bundle) ->
                let spec = b.Vega.Pipeline.spec in
                if not (spec.Vega_corpus.Spec.applies p) then None
                else
                  let gf =
                    Vega.Generate.run t.Vega.Pipeline.prep.Vega.Pipeline.ctx
                      b.Vega.Pipeline.tpl b.Vega.Pipeline.analysis
                      b.Vega.Pipeline.hints ~target:p.Vega_target.Profile.name
                      ~decoder
                  in
                  Some
                    {
                      Vega_analysis.Lint.fr_fname = spec.Vega_corpus.Spec.fname;
                      fr_diags =
                        Vega_analysis.Lint.lint_generated tab b.Vega.Pipeline.tpl
                          gf;
                    })
              t.Vega.Pipeline.prep.Vega.Pipeline.bundles
          in
          {
            Vega_analysis.Lint.r_target = p.Vega_target.Profile.name;
            r_funcs = funcs;
          }
      end
    in
    (* a sweep fails when ANY target fails: fold, don't short-circuit, so
       every target's findings are still printed *)
    let failed =
      List.fold_left
        (fun acc p -> if print_report (report_of p) then true else acc)
        false targets
    in
    exit (if failed then 1 else 0)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static-analyze a backend (parse/shape, symbols, dataflow, \
          interface conformance); $(b,-t all) sweeps every registered \
          target; non-zero exit when any target has errors")
    Term.(const run $ target_arg $ generated_flag $ json_flag)

(* ------------------------------------------------------------------ *)
(* verify: the abstract-interpretation semantic verifier. Exit contract:
   0 clean, 4 when any semantic diagnostic is reported, 2 on a crash. *)

let verify_cmd =
  let generated_flag =
    Arg.(
      value & flag
      & info [ "generated" ]
          ~doc:
            "Verify the functions the pipeline generates for the target \
             (retrieval decoder) against their reference implementations, \
             instead of the reference backend against itself.")
  in
  let diag_json (d : Vega_analysis.Diagnostic.t) =
    json_obj
      ([
         ("rule", json_str d.Vega_analysis.Diagnostic.rule);
         ("cls", json_str (Vega_analysis.Diagnostic.cls_name d.cls));
         ("severity", json_str (Vega_analysis.Diagnostic.severity_name d.severity));
         ("taxonomy", json_str (Vega_analysis.Diagnostic.taxonomy d));
         ("fname", json_str d.fname);
       ]
      @ (match d.span with
        | Some sp ->
            [
              ("line", string_of_int sp.Vega_srclang.Span.line);
              ("col", string_of_int sp.Vega_srclang.Span.col);
            ]
        | None -> [])
      @ [ ("msg", json_str d.msg) ])
  in
  let run target generated json =
    let targets =
      if target = "all" then Vega_target.Registry.all
      else
        match Vega_target.Registry.find target with
        | Some p -> [ p ]
        | None ->
            Printf.eprintf "unknown target %s\n" target;
            exit 2
    in
    let print_verdicts tname (funcs : (string * Vega_analysis.Diagnostic.t list) list) =
      let diags = List.concat_map snd funcs in
      let sem =
        List.filter
          (fun (d : Vega_analysis.Diagnostic.t) ->
            d.cls = Vega_analysis.Diagnostic.Sem)
          diags
      in
      if json then begin
        List.iter (fun d -> print_endline (diag_json d)) diags;
        print_endline
          (json_obj
             [
               ("event", json_str "summary");
               ("target", json_str tname);
               ("functions", string_of_int (List.length funcs));
               ("diagnostics", string_of_int (List.length diags));
               ("semantic", string_of_int (List.length sem));
             ])
      end
      else begin
        Printf.printf
          "target %s: %d function(s) verified, %d diagnostic(s), %d semantic\n"
          tname (List.length funcs) (List.length diags) (List.length sem);
        List.iter
          (fun d -> print_endline ("  " ^ Vega_analysis.Diagnostic.to_string d))
          diags
      end;
      diags <> []
    in
    let verdicts_of =
      if not generated then begin
        let corpus = Vega_corpus.Corpus.build () in
        fun (p : Vega_target.Profile.t) ->
          let r =
            Vega_absint.Verify.verify_target corpus.Vega_corpus.Corpus.vfs p
          in
          List.map
            (fun (fv : Vega_absint.Verify.func_verdict) ->
              (fv.Vega_absint.Verify.fv_fname, fv.Vega_absint.Verify.fv_diags))
            r.Vega_absint.Verify.v_funcs
          @ (match r.Vega_absint.Verify.v_asm with
            | [] -> []
            | asm -> [ ("<emitted-asm>", asm) ])
      end
      else begin
        let t, decoder = mk_pipeline ~model:false in
        fun (p : Vega_target.Profile.t) ->
          List.filter_map
            (fun (b : Vega.Pipeline.bundle) ->
              let spec = b.Vega.Pipeline.spec in
              if not (spec.Vega_corpus.Spec.applies p) then None
              else
                let gf =
                  Vega.Generate.run t.Vega.Pipeline.prep.Vega.Pipeline.ctx
                    b.Vega.Pipeline.tpl b.Vega.Pipeline.analysis
                    b.Vega.Pipeline.hints ~target:p.Vega_target.Profile.name
                    ~decoder
                in
                let fname = spec.Vega_corpus.Spec.fname in
                let reference = Vega_corpus.Corpus.reference_inlined spec p in
                Some
                  ( fname,
                    Vega_absint.Verify.verify_source ?reference ~fname
                      (Vega.Generate.source_of gf) ))
            t.Vega.Pipeline.prep.Vega.Pipeline.bundles
      end
    in
    match
      List.fold_left
        (fun acc p ->
          if print_verdicts p.Vega_target.Profile.name (verdicts_of p) then true
          else acc)
        false targets
    with
    | true -> exit 4
    | false -> exit 0
    | exception e ->
        Printf.eprintf "vega-cli verify: %s\n" (Printexc.to_string e);
        exit 2
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Semantically verify a backend by abstract interpretation \
          (value ranges, initialization, differential summaries against \
          the reference, emitted-code register discipline). $(b,-t all) \
          sweeps every registered target. Exits 0 when clean, 4 on \
          semantic diagnostics, 2 on a crash.")
    Term.(const run $ target_arg $ generated_flag $ json_flag)

(* ------------------------------------------------------------------ *)
(* faultcheck: the vega.chaos fault-injection suite. Exit 1 on any
   invariant violation. *)

module R = Vega_robust
module S = Vega_serve
module Sh = Vega_shard
module F = Vega_fleet.Fleet

let faultcheck_cmd =
  let seed_arg =
    Arg.(value & opt int 13 & info [ "seed" ] ~doc:"Injection seed.")
  in
  let kill_at_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-at" ]
          ~doc:
            "Select the kill-and-resume determinism check: simulate a hard \
             crash after $(docv) journal records, then resume and assert the \
             output is bit-identical to an uninterrupted run. 0 sweeps the \
             offsets {1, mid, last}." ~docv:"K")
  in
  let run_dir_arg =
    Arg.(
      value
      & opt string "_vega_faultcheck"
      & info [ "run-dir" ]
          ~doc:"Directory for the run journals and caches." ~docv:"DIR")
  in
  let shard_kill_arg =
    Arg.(
      value & flag
      & info [ "shard-kill" ]
          ~doc:
            "Select the sharded-serving scenarios: the content-addressed \
             cache round-trip (corruption falls through to generation) and \
             the shard-storm-kill determinism check (kill 1 of 3 shards at \
             4x capacity mid-storm, assert a byte-reproducible \
             accept/reroute/shed sequence, journal resume, and final output \
             bit-identical to the unkilled run).")
  in
  let chaos_soak_arg =
    Arg.(
      value & flag
      & info [ "chaos-soak" ]
          ~doc:
            "Select the chaos-soak scenario: seeded rounds composing shard \
             kills, stalls, probe drops, cache corruption and version skew \
             against a self-healing fleet (health-probed respawn from \
             journal, live ring reconfiguration, hedged requests), asserting \
             zero lost requests, byte-equal decision and event logs across \
             same-seed repeats, typed rejections for every quarantine, and \
             merged outputs bit-identical to an unkilled single-shard \
             reference. Not part of the default run.")
  in
  let soak_rounds_arg =
    Arg.(
      value
      & opt int 3
      & info [ "soak-rounds" ] ~docv:"R"
          ~doc:"Number of chaos-soak rounds (each runs twice per policy).")
  in
  let stream_chaos_arg =
    Arg.(
      value & flag
      & info [ "stream-chaos" ]
          ~doc:
            "Select the streaming connection-chaos scenarios against the \
             event-loop serve core: cancel-storm, slow-loris shed, and \
             mid-stream kill/resume — each run twice and required to \
             produce byte-equal engine decision logs under the seed, with \
             zero lost or double-decoded requests and no raw exception \
             escaping the event loop.")
  in
  let run target seed json kill_at run_dir shard_kill chaos_soak soak_rounds
      stream_chaos domains =
    let groups =
      Vega_chaos.Faultcheck.select ~kill_at ~shard_kill ~chaos_soak
        ~stream_chaos
    in
    match
      Vega_chaos.Faultcheck.run ~json ~target ~seed ~run_dir ~domains
        ~soak_rounds groups
    with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok violations -> exit (if violations = 0 then 0 else 1)
  in
  Cmd.v
    (Cmd.info "faultcheck"
       ~doc:
         "Run the deterministic fault-injection suite (vega.chaos) against \
          one target; non-zero exit on any invariant violation. The default \
          run covers the injection matrix (decoder, corpus, description \
          files, interpreter and simulator fuel, circuit breaker, serve \
          overload, deadlines and drain/kill/resume), kill-and-resume, \
          sharded serving and streaming connection chaos. With any of \
          $(b,--kill-at), $(b,--shard-kill), $(b,--chaos-soak) or \
          $(b,--stream-chaos), only the selected groups run: their union, \
          in the order matrix, kill-and-resume, sharded serving, chaos \
          soak, streaming.")
    Term.(
      const run $ target_arg $ seed_arg $ json_flag $ kill_at_arg
      $ run_dir_arg $ shard_kill_arg $ chaos_soak_arg $ soak_rounds_arg
      $ stream_chaos_arg
      $ domains_arg)

let compile_cmd =
  let prog_arg =
    Arg.(value & opt string "loop_sum" & info [ "p"; "program" ]
           ~doc:"VIR program name from the built-in suites.")
  in
  let opt_arg =
    Arg.(value & opt string "O3" & info [ "o"; "opt" ] ~doc:"O0 or O3.")
  in
  let run_flag =
    Arg.(value & flag & info [ "run" ] ~doc:"Simulate after compiling.")
  in
  let run target prog optlevel do_run =
    let case =
      match Vega_ir.Programs.find prog with
      | Some c -> c
      | None ->
          Printf.eprintf "unknown program %s\n" prog;
          exit 1
    in
    let p =
      match Vega_target.Registry.find target with
      | Some p -> p
      | None ->
          Printf.eprintf "unknown target %s\n" target;
          exit 1
    in
    let corpus = Vega_corpus.Corpus.build () in
    let _, conv =
      Vega_eval.Refbackend.backend_for corpus.Vega_corpus.Corpus.vfs p
    in
    let opt =
      if optlevel = "O0" then Vega_backend.Compiler.O0 else Vega_backend.Compiler.O3
    in
    let out = Vega_backend.Compiler.compile conv ~opt (Vega_ir.Programs.modul_of case) in
    print_string out.Vega_backend.Compiler.asm;
    if do_run then begin
      let r =
        Vega_sim.Machine.run conv out.Vega_backend.Compiler.emitted
          ~entry:case.Vega_ir.Programs.entry ~args:case.Vega_ir.Programs.args
      in
      Printf.printf "\noutput: [%s]  cycles: %d\n"
        (String.concat "; " (List.map string_of_int r.Vega_sim.Machine.output))
        r.Vega_sim.Machine.cycles
    end
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a VIR program with the base compiler")
    Term.(const run $ target_arg $ prog_arg $ opt_arg $ run_flag)

let socket_arg =
  let doc = "Unix socket path the daemon listens on." in
  Arg.(
    value
    & opt string "/tmp/vega-serve.sock"
    & info [ "socket" ] ~doc ~docv:"PATH")

let serve_cmd =
  let slots_arg =
    Arg.(
      value
      & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Decode slots of the event loop: up to $(docv) requests decode at \
             once, each slot stepped on its own domain. Default 1.")
  in
  let queue_cap_arg =
    Arg.(
      value
      & opt int 16
      & info [ "queue-cap" ] ~docv:"K"
          ~doc:
            "Bound on the requests waiting for a decode slot: one more is \
             shed with a queue-full rejection instead of growing memory.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt int 0
      & info [ "deadline-ms" ] ~docv:"D"
          ~doc:
            "Default per-request deadline. A stalled decode degrades through \
             the supervisor ladder instead of hanging; 0 disables.")
  in
  let run_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "run-dir" ] ~docv:"DIR"
          ~doc:
            "Serve durably: write-ahead-journal every statement under \
             $(docv) before acting on it, so a restart with $(b,--resume) \
             loses nothing.")
  in
  let resume_flag =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Resume the journal already in $(b,--run-dir).")
  in
  let kill_at_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-at" ] ~docv:"N"
          ~doc:
            "Fault harness: simulate a hard crash after $(docv) durable \
             journal records (exit 2).")
  in
  let batch_slots_arg =
    Arg.(
      value
      & opt int 0
      & info [ "batch-slots" ] ~docv:"B"
          ~doc:
            "Coalesce concurrent model decodes into batched decode steps \
             over $(docv) request slots (requires $(b,--model); per-request \
             outputs are unchanged). 0 or 1 disables.")
  in
  let run socket target model slots queue_cap deadline_ms run_dir resume
      kill_at batch_slots =
    let t, decoder = mk_pipeline ~model in
    let decoder =
      if model && batch_slots > 1 then
        match Vega.Pipeline.new_batcher t ~slots:batch_slots with
        | Some b -> Vega.Pipeline.model_decoder ~batch:b t
        | None -> decoder
      else decoder
    in
    let config = { S.Server.default_config with S.Server.deadline_ms } in
    match
      S.Server.create ~config ?run_dir ~resume ?kill_at t ~target ~decoder
    with
    | Error e ->
        Printf.eprintf "vega-serve: %s\n" e;
        exit 1
    | Ok server -> (
        let cfg =
          {
            S.Evloop.default_config with
            S.Evloop.ev_slots = max 1 slots;
            ev_wait_cap = queue_cap;
          }
        in
        let h = S.Evloop.start ~cfg server ~path:socket in
        Printf.printf
          "vega-serve: target %s on %s (%d slot(s), wait cap %d%s%s%s)\n%!"
          target socket cfg.S.Evloop.ev_slots cfg.S.Evloop.ev_wait_cap
          (if model && batch_slots > 1 then
             Printf.sprintf ", batch slots %d" batch_slots
           else "")
          (if deadline_ms > 0 then Printf.sprintf ", deadline %dms" deadline_ms
           else "")
          (match run_dir with
          | Some d ->
              Printf.sprintf ", journal %s%s" d
                (if resume then
                   Printf.sprintf " (resumed %d function(s))"
                     (S.Server.resumed_functions server)
                 else "")
          | None -> "");
        match S.Evloop.wait h with
        | () ->
            Printf.printf "vega-serve: drained — %s\n"
              (S.Health.summary (S.Evloop.health (S.Evloop.engine h)))
        | exception Vega_robust.Journal.Killed n ->
            Printf.eprintf
              "vega-serve: simulated crash after %d journal record(s); \
               restart with --resume\n"
              n;
            exit 2)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resilient serving daemon on a select() event loop: bounded \
          admission with explicit load-shedding, per-request deadlines, \
          per-client retry budgets, framed streaming with cancellation, \
          health snapshots, graceful drain that lets in-flight requests \
          finish. $(b,--domains) sets the concurrent \
          decode slots, stepped in parallel on one domain each, and \
          $(b,--queue-cap) bounds the requests waiting for one")
    Term.(
      const run $ socket_arg $ target_arg $ model_flag $ slots_arg
      $ queue_cap_arg $ deadline_arg $ run_dir_arg $ resume_flag $ kill_at_arg
      $ batch_slots_arg)

let request_cmd =
  let fname_arg =
    Arg.(
      value
      & opt string "getRelocType"
      & info [ "f"; "function" ] ~doc:"Interface function to request.")
  in
  let client_arg =
    Arg.(
      value
      & opt string "cli"
      & info [ "client" ]
          ~doc:"Client identity for the per-client retry budget.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"D"
          ~doc:"Per-request deadline override.")
  in
  let health_flag =
    Arg.(value & flag & info [ "health" ] ~doc:"Print a health snapshot.")
  in
  let drain_flag =
    Arg.(
      value & flag
      & info [ "drain" ]
          ~doc:
            "Gracefully drain the daemon: stop admitting, finish \
             in-flight requests, exit.")
  in
  let ping_flag =
    Arg.(value & flag & info [ "ping" ] ~doc:"Liveness check only.")
  in
  let stream_flag =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Stream the reply: one frame per statement as it decodes \
             (rung, confidence, tokens), terminated by the final verdict \
             frame. A router relays the owning shard's frames live.")
  in
  let cancel_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cancel-after" ] ~docv:"N"
          ~doc:
            "With $(b,--stream): send a cancel frame once $(docv) statement \
             frames have arrived; the server aborts at the next statement \
             boundary and replies with a typed cancellation.")
  in
  let run socket target fname client deadline_ms health drain ping stream
      cancel_after json =
    let print_health = function
      | None ->
          Printf.eprintf "vega-request: no health reply from %s\n" socket;
          exit 5
      | Some h ->
          if json then
            print_endline
              (json_obj
                 [
                   ("state", json_str (S.Health.state_name h.S.Health.h_state));
                   ("queue_depth", string_of_int h.S.Health.h_queue_depth);
                   ("queue_cap", string_of_int h.S.Health.h_queue_cap);
                   ("busy", string_of_int h.S.Health.h_busy);
                   ("domains", string_of_int h.S.Health.h_domains);
                   ("accepted", string_of_int h.S.Health.h_accepted);
                   ("rejected", string_of_int h.S.Health.h_rejected);
                   ("completed", string_of_int h.S.Health.h_completed);
                   ("deadline_hits", string_of_int h.S.Health.h_deadline_hits);
                   ("breaker_open", string_of_bool h.S.Health.h_breaker_open);
                   ( "journal_records",
                     string_of_int h.S.Health.h_journal_records );
                   ("journal_lag", string_of_int h.S.Health.h_journal_lag);
                   ("cancelled", string_of_int h.S.Health.h_cancelled);
                   ("epoch", string_of_int h.S.Health.h_epoch);
                 ])
          else print_endline (S.Health.summary h)
    in
    if ping then begin
      if S.Sock.ping ~socket () then print_endline "pong"
      else begin
        Printf.eprintf "vega-request: no pong from %s\n" socket;
        exit 5
      end
    end
    else if drain then print_health (S.Sock.drain ~socket ())
    else if health then print_health (S.Sock.health ~socket ())
    else begin
      let req = S.Proto.request ?deadline_ms ~client ~target fname in
      let finish = function
        | S.Proto.Done d ->
            if json then
              print_endline
                (json_obj
                   [
                     ("status", json_str "done");
                     ("fname", json_str d.r_fname);
                     ("target", json_str d.r_target);
                     ("confidence", Printf.sprintf "%.4f" d.r_confidence);
                     ("degraded", string_of_int d.r_degraded);
                     ("resumed", string_of_bool d.r_resumed);
                     ("source", json_str d.r_source);
                   ])
            else
              Printf.printf "// %s@%s confidence %.2f%s%s\n%s\n"
                d.r_fname d.r_target d.r_confidence
                (if d.r_degraded > 0 then
                   Printf.sprintf " (%d degraded stmt(s))" d.r_degraded
                 else "")
                (if d.r_resumed then " (resumed from journal)" else "")
                d.r_source
        | S.Proto.Rejected r ->
            if json then
              print_endline
                (json_obj
                   [
                     ("status", json_str "rejected");
                     ("reason", json_str (S.Proto.reject_label r));
                     ("detail", json_str (S.Proto.reject_to_string r));
                   ])
            else
              Printf.eprintf "vega-request: %s\n" (S.Proto.reject_to_string r);
            exit 4
        | S.Proto.Failed m ->
            if json then
              print_endline
                (json_obj
                   [ ("status", json_str "failed"); ("detail", json_str m) ])
            else Printf.eprintf "vega-request: %s\n" m;
            exit 5
      in
      if stream then
        match S.Sock.stream ~socket ?cancel_after req with
        | Error e ->
            Printf.eprintf "vega-request: %s\n" e;
            exit 5
        | Ok frames -> (
            let final = ref None in
            List.iter
              (function
                | S.Proto.Fstmt
                    { f_index; f_level; f_score; f_shape_ok; f_tokens } ->
                    if json then
                      print_endline
                        (json_obj
                           [
                             ("frame", json_str "stmt");
                             ("index", string_of_int f_index);
                             ("level", json_str f_level);
                             ("score", Printf.sprintf "%.4f" f_score);
                             ("shape_ok", string_of_bool f_shape_ok);
                             ("tokens", json_str (String.concat " " f_tokens));
                           ])
                    else
                      Printf.printf "  [%03d] %-9s %.3f%s  %s\n%!" f_index
                        f_level f_score
                        (if f_shape_ok then "" else " !shape")
                        (String.concat " " f_tokens)
                | S.Proto.Ffinal r -> final := Some r)
              frames;
            match !final with
            | Some r -> finish r
            | None ->
                Printf.eprintf
                  "vega-request: stream ended without a final frame\n";
                exit 5)
      else finish (S.Sock.request ~socket req)
    end
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request (or $(b,--health)/$(b,--drain)/$(b,--ping)) to a \
          running vega-serve daemon; $(b,--stream) receives per-statement \
          frames, $(b,--cancel-after) aborts mid-decode; exits 0 on \
          success, 4 when the server sheds the request, 5 on failure")
    Term.(
      const run $ socket_arg $ target_arg $ fname_arg $ client_arg
      $ deadline_arg $ health_flag $ drain_flag $ ping_flag $ stream_flag
      $ cancel_after_arg $ json_flag)

let route_cmd =
  let shards_arg =
    Arg.(
      value
      & opt int 3
      & info [ "shards" ] ~docv:"N"
          ~doc:"Number of in-process serving shards behind the router.")
  in
  let policy_arg =
    Arg.(
      value
      & opt string "reroute"
      & info [ "policy" ] ~docv:"P"
          ~doc:
            "Degrade policy when a shard is down: $(b,reroute) walks the \
             ring successors, $(b,shed) answers a typed shard-down \
             rejection.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Content-addressed result cache: repeats of (model, description \
             files, function) are answered from checksummed entries under \
             $(docv) without touching a shard or the decoder.")
  in
  let run_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "run-dir" ] ~docv:"DIR"
          ~doc:
            "Durable fleet: shard $(i,i) journals under $(docv)/shard-$(i,i) \
             and can be resumed from its own segment after a crash.")
  in
  let run socket target model shards policy cache_dir run_dir =
    let policy =
      match Sh.Router.policy_of_name policy with
      | Some p -> p
      | None ->
          Printf.eprintf "vega-route: unknown policy %s (reroute|shed)\n"
            policy;
          exit 1
    in
    if shards < 1 then begin
      Printf.eprintf "vega-route: need at least one shard\n";
      exit 1
    end;
    let t, decoder = mk_pipeline ~model in
    let fingerprint, desc_hash = Sh.Cache.keys t ~target in
    let servers =
      List.init shards (fun i ->
          let run_dir = Option.map (fun d -> Sh.Router.shard_run_dir d i) run_dir in
          match S.Server.create ?run_dir t ~target ~decoder with
          | Ok srv -> (i, srv)
          | Error e ->
              Printf.eprintf "vega-route: shard %d failed to start: %s\n" i e;
              exit 1)
    in
    let cache =
      Option.map
        (fun dir -> Sh.Cache.create ~dir ~fingerprint ~desc_hash ())
        cache_dir
    in
    let eps =
      List.map
        (fun (i, srv) ->
          Sh.Router.of_server ~name:(Printf.sprintf "shard-%d" i) srv)
        servers
    in
    let rcfg = { Sh.Router.default_config with Sh.Router.policy } in
    match
      Sh.Router.create ~config:rcfg ?cache ~fingerprint ~desc_hash eps
    with
    | Error e ->
        Printf.eprintf "vega-route: %s\n" e;
        exit 1
    | Ok router -> (
        let l = Sh.Rsock.start router ~path:socket in
        Printf.printf
          "vega-route: %d shard(s) for %s on %s (policy %s%s%s)\n%!" shards
          target socket
          (Sh.Router.policy_name policy)
          (match cache_dir with
          | Some d -> Printf.sprintf ", cache %s" d
          | None -> "")
          (match run_dir with
          | Some d -> Printf.sprintf ", journals %s/shard-*" d
          | None -> "");
        match S.Evloop.wait l with
        | () ->
            let c = Sh.Router.counters router in
            Printf.printf
              "vega-route: drained — %d routed, %d cache hit(s), %d \
               reroute(s), %d shed\n"
              c.Sh.Router.rt_routed c.Sh.Router.rt_cache_hits
              c.Sh.Router.rt_reroutes c.Sh.Router.rt_sheds
        | exception Vega_robust.Journal.Killed n ->
            Printf.eprintf
              "vega-route: a shard simulated a crash after %d journal \
               record(s); restart with --resume on its segment\n"
              n;
            exit 2)
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Run the sharded serving tier: a consistent-hash router over N \
          in-process shards with per-shard circuit breakers, seeded retry \
          backoff, hedging around stalled shards, deterministic \
          reroute-or-shed degrade, and an optional content-addressed \
          result cache; speaks the same socket protocol as $(b,serve), on \
          the same event loop (default slots and wait cap). Every request, \
          plain or streamed, is stepped one statement at a time on its \
          owning shard, so a decode never holds up other connections and \
          a half-close or reset cancels it")
    Term.(
      const run $ socket_arg $ target_arg $ model_flag $ shards_arg
      $ policy_arg $ cache_dir_arg $ run_dir_arg)

let fleet_cmd =
  let shards_arg =
    Arg.(
      value
      & opt int 3
      & info [ "shards" ] ~docv:"N"
          ~doc:"Number of supervised in-process shards.")
  in
  let seed_arg =
    Arg.(
      value
      & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Seed for the request storm, the victim pick and every \
             tie-break; the same seed replays the same decision and event \
             logs byte for byte.")
  in
  let passes_arg =
    Arg.(
      value
      & opt int 3
      & info [ "passes" ] ~docv:"P"
          ~doc:"Request-storm size: $(docv) shuffled passes over the corpus.")
  in
  let kill_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill" ] ~docv:"K"
          ~doc:
            "Arm the seeded victim shard's journal to simulate a crash \
             after $(docv) records: the fleet detects the corpse on its \
             probe schedule and respawns it from its own journal segment.")
  in
  let run_dir_arg =
    Arg.(
      value
      & opt string "_fleet"
      & info [ "run-dir" ] ~docv:"DIR"
          ~doc:
            "Fleet home: shard $(i,i) journals under $(docv)/shard-$(i,i); \
             respawns resume from the same segment.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Optional content-addressed result cache shared by the fleet; \
             rerouted keys warm-start from it.")
  in
  let run target model shards seed passes kill run_dir cache_dir json =
    if shards < 1 then begin
      Printf.eprintf "vega-fleet: need at least one shard\n";
      exit 1
    end;
    let t, decoder = mk_pipeline ~model in
    let fingerprint, desc_hash = Sh.Cache.keys t ~target in
    let fnames = Vega.Pipeline.fnames t in
    let nf = List.length fnames in
    if nf = 0 then begin
      Printf.eprintf "vega-fleet: the corpus provides no functions\n";
      exit 1
    end;
    let scfg =
      {
        S.Server.default_config with
        S.Server.client_burst = 100000.0;
        client_rate = 0.0;
      }
    in
    let victim =
      Option.map
        (fun _ ->
          R.Inject.shard_victim
            (R.Inject.create ~seed R.Inject.Shard_kill)
            ~shards)
        kill
    in
    let specs =
      List.init shards (fun i ->
          let dir = Sh.Router.shard_run_dir run_dir i in
          {
            F.sp_name = Printf.sprintf "shard-%d" i;
            sp_spawn =
              (fun ~epoch ~resume ->
                S.Server.create ~config:scfg ~run_dir:dir ~resume
                  ?kill_at:
                    (match (victim, kill) with
                    | Some v, Some k when v = i && epoch = 0 -> Some k
                    | _ -> None)
                  ~epoch t ~target ~decoder);
          })
    in
    let cache =
      Option.map
        (fun dir -> Sh.Cache.create ~dir ~fingerprint ~desc_hash ())
        cache_dir
    in
    let fcfg = { F.default_config with F.seed } in
    let rcfg = { Sh.Router.default_config with Sh.Router.seed } in
    match
      F.create ~config:fcfg ~router_config:rcfg ?cache ~fingerprint
        ~desc_hash specs
    with
    | Error e ->
        Printf.eprintf "vega-fleet: %s\n" e;
        exit 1
    | Ok fleet ->
        let storm = R.Inject.create ~seed R.Inject.Queue_storm in
        let order = R.Inject.storm_order storm (passes * nf) in
        let ok = ref 0 and rejected = ref 0 and failed = ref 0 in
        List.iter
          (fun i ->
            let fname = List.nth fnames (i mod nf) in
            match
              F.request fleet (S.Proto.request ~client:"fleet" ~target fname)
            with
            | S.Proto.Done _ -> incr ok
            | S.Proto.Rejected _ -> incr rejected
            | S.Proto.Failed _ -> incr failed)
          order;
        let statuses = Sh.Router.status (F.router fleet) in
        let decisions = Sh.Router.decisions (F.router fleet) in
        let events = F.event_log fleet in
        let quarantined = F.quarantined fleet in
        (* crash-detect -> respawned pairs, measured on the decision clock *)
        let recoveries =
          List.filter_map
            (function
              | F.Respawned { shard; decision; epoch } ->
                  let detect =
                    List.find_map
                      (function
                        | F.Crash_detected { shard = s; decision = d }
                          when s = shard && d <= decision ->
                            Some d
                        | _ -> None)
                      (F.events fleet)
                  in
                  Option.map
                    (fun d -> (shard, epoch, decision - d))
                    detect
              | _ -> None)
            (F.events fleet)
        in
        if json then begin
          print_endline
            (json_obj
               [
                 ("event", json_str "fleet");
                 ("target", json_str target);
                 ("seed", string_of_int seed);
                 ("shards", string_of_int shards);
                 ("requests", string_of_int (passes * nf));
                 ("done", string_of_int !ok);
                 ("rejected", string_of_int !rejected);
                 ("failed", string_of_int !failed);
                 ("decisions", json_str decisions);
                 ("events", json_str events);
               ]);
          List.iter
            (fun (s : Sh.Router.shard_status) ->
              print_endline
                (json_obj
                   [
                     ("event", json_str "shard");
                     ("shard", json_str s.Sh.Router.ss_name);
                     ("class", json_str (F.class_name (F.shard_class fleet s.Sh.Router.ss_name)));
                     ("epoch", string_of_int (F.epoch fleet s.Sh.Router.ss_name));
                     ("breaker", json_str s.Sh.Router.ss_breaker);
                     ("routed", string_of_int s.Sh.Router.ss_routed);
                     ("failures", string_of_int s.Sh.Router.ss_failures);
                   ]))
            statuses
        end
        else begin
          Printf.printf
            "vega-fleet: %d shard(s) for %s, %d request(s) — %d done, %d \
             rejected, %d failed\n"
            shards target (passes * nf) !ok !rejected !failed;
          Printf.printf "decisions %s\n" decisions;
          if events <> "" then Printf.printf "events    %s\n" events;
          List.iter
            (fun (s : Sh.Router.shard_status) ->
              Printf.printf
                "%-12s class %-9s epoch %-3d breaker %-9s routed %-6d \
                 failures %d\n"
                s.Sh.Router.ss_name
                (F.class_name (F.shard_class fleet s.Sh.Router.ss_name))
                (F.epoch fleet s.Sh.Router.ss_name)
                s.Sh.Router.ss_breaker s.Sh.Router.ss_routed
                s.Sh.Router.ss_failures)
            statuses;
          List.iter
            (fun (shard, epoch, d) ->
              Printf.printf
                "recovery   %s respawned (epoch %d) %d decision(s) after \
                 detection\n"
                shard epoch d)
            recoveries;
          List.iter
            (fun (shard, crashes) ->
              Printf.printf "quarantine %s after %d crash(es)\n" shard
                crashes)
            quarantined
        end;
        (try F.drain fleet
         with Vega_robust.Journal.Killed _ -> ());
        if !failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run the self-healing fleet supervisor over N in-process shards: \
          deterministic health probing on the routing decision clock, \
          crash detection and journal-resumed respawn with seeded backoff, \
          flap quarantine with live ring reconfiguration, and hedged \
          requests around stalled shards. Each request runs the path a \
          $(b,route) daemon serves: a stream stepped to its final on the \
          owning shard. Optionally arm a simulated crash with $(b,--kill) \
          and watch the fleet heal")
    Term.(
      const run $ target_arg $ model_flag $ shards_arg $ seed_arg
      $ passes_arg $ kill_arg $ run_dir_arg $ cache_dir_arg $ json_flag)

let shard_status_cmd =
  let run socket json =
    match Sh.Rsock.shard_status ~socket with
    | None ->
        Printf.eprintf
          "vega-shard-status: no shard table from %s (is it a router?)\n"
          socket;
        exit 5
    | Some statuses ->
        if json then
          List.iter
            (fun (s : Sh.Router.shard_status) ->
              print_endline
                (json_obj
                   [
                     ("shard", json_str s.Sh.Router.ss_name);
                     ("breaker", json_str s.Sh.Router.ss_breaker);
                     ("state", json_str s.Sh.Router.ss_state);
                     ("routed", string_of_int s.Sh.Router.ss_routed);
                     ("failures", string_of_int s.Sh.Router.ss_failures);
                     ("rerouted", string_of_int s.Sh.Router.ss_rerouted);
                     ("shed", string_of_int s.Sh.Router.ss_shed);
                   ]))
            statuses
        else
          List.iter
            (fun (s : Sh.Router.shard_status) ->
              Printf.printf
                "%-12s breaker %-9s state %-8s routed %-6d failures %-4d \
                 rerouted %-4d shed %d\n"
                s.Sh.Router.ss_name s.Sh.Router.ss_breaker s.Sh.Router.ss_state
                s.Sh.Router.ss_routed s.Sh.Router.ss_failures
                s.Sh.Router.ss_rerouted s.Sh.Router.ss_shed)
            statuses
  in
  Cmd.v
    (Cmd.info "shard-status"
       ~doc:
         "Print a running router's per-shard table: breaker state, probed \
          health, routed/failure/reroute/shed counters")
    Term.(const run $ socket_arg $ json_flag)

let () =
  let doc = "VEGA: automatically generating compiler backends (reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "vega-cli" ~doc)
          [
            stats_cmd;
            generate_cmd;
            backend_cmd;
            lint_cmd;
            verify_cmd;
            faultcheck_cmd;
            serve_cmd;
            request_cmd;
            route_cmd;
            fleet_cmd;
            shard_status_cmd;
            compile_cmd;
          ]))
