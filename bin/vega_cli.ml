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
     vega-cli faultcheck [-t T] [--seed N] [--json]   fault-injection matrix
     vega-cli faultcheck --kill-at K --run-dir d [--domains N]
                                              kill-and-resume check
     vega-cli serve [--socket P] [--domains N] [--queue-cap K]
                    [--deadline-ms D] [--run-dir d [--resume]]
                                              resilient serving daemon
     vega-cli request [--socket P] -f NAME [--health|--drain|--ping]
     vega-cli compile -t ARM -p fib -o O3 [--run]                          *)

open Cmdliner

(* Minimal JSON-lines emission (no JSON library in the toolchain): every
   record is one object on one line, strings escaped by hand. *)
let json_str s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_obj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_str k) v) fields)
  ^ "}"

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
            "Generate the whole backend durably: write-ahead journal and \
             checkpoints under $(docv). Refuses a directory holding a \
             previous run's journal." ~docv:"DIR")
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
(* faultcheck: deterministic fault-injection matrix with invariant
   checks. Exit 1 on any violation. *)

module R = Vega_robust
module S = Vega_serve
module Sh = Vega_shard
module F = Vega_fleet.Fleet

(* Everything one chaos-soak fleet run leaves behind, captured before the
   fleet is drained so same-seed twins can be compared byte for byte. *)
type soak_run = {
  sk_d : string;  (* router decision log *)
  sk_ev : string;  (* fleet event log *)
  sk_replies : Vega_serve.Proto.reply list;  (* storm replies, in order *)
  sk_extra : (string * Vega_serve.Proto.reply) list;  (* post-corruption *)
  sk_tail : Vega_serve.Proto.reply list;  (* full sweep after the faults *)
  sk_funcs : Vega.Generate.gen_func list list;  (* per-shard outputs *)
  sk_q : (string * int) list;  (* quarantined shards with crash counts *)
  sk_report : Vega_robust.Report.t;
  sk_recovery : int option;  (* decisions from crash detect to respawned *)
  sk_epoch : int;  (* victim epoch at the end of the round *)
}

(* ---- streaming connection chaos (faultcheck): scripted clients ----

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
  cr_final : Vega_serve.Proto.reply option;  (* terminal frame, if readable *)
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
                        {
                          S.Proto.rq_client = "chaos";
                          rq_target = target;
                          rq_fname = f;
                          rq_deadline_ms = None;
                        })
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
            "Run only the kill-and-resume determinism check: simulate a hard \
             crash after $(docv) journal records, then resume and assert the \
             output is bit-identical to an uninterrupted run. 0 sweeps the \
             offsets {1, mid, last}." ~docv:"K")
  in
  let run_dir_arg =
    Arg.(
      value
      & opt string "_vega_faultcheck"
      & info [ "run-dir" ]
          ~doc:"Directory for the kill-and-resume run journals." ~docv:"DIR")
  in
  let shard_kill_arg =
    Arg.(
      value & flag
      & info [ "shard-kill" ]
          ~doc:
            "Run only the sharded-serving scenarios: the content-addressed \
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
            "Run only the chaos-soak scenario: seeded rounds composing shard \
             kills, stalls, probe drops, cache corruption and version skew \
             against a self-healing fleet (health-probed respawn from \
             journal, live ring reconfiguration, hedged requests), asserting \
             zero lost requests, byte-equal decision and event logs across \
             same-seed repeats, typed rejections for every quarantine, and \
             merged outputs bit-identical to an unkilled single-shard \
             reference.")
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
            "Run only the streaming connection-chaos scenarios against the \
             event-loop serve core: cancel-storm, slow-loris shed, and \
             mid-stream kill/resume — each run twice and required to \
             produce byte-equal engine decision logs under the seed, with \
             zero lost or double-decoded requests and no raw exception \
             escaping the event loop.")
  in
  let run target seed json kill_at run_dir shard_only chaos_soak soak_rounds
      stream_chaos domains =
    let p =
      match Vega_target.Registry.find target with
      | Some p -> p
      | None ->
          Printf.eprintf "unknown target %s\n" target;
          exit 1
    in
    let violations = ref 0 in
    let jline fields = print_endline (json_obj fields) in
    let violation fmt =
      Printf.ksprintf
        (fun s ->
          incr violations;
          if json then
            jline
              [ ("event", json_str "violation"); ("message", json_str s) ]
          else Printf.printf "  VIOLATION: %s\n%!" s)
        fmt
    in
    let check name cond = if not cond then violation "%s" name in
    let scenario name =
      if json then
        jline [ ("event", json_str "scenario"); ("name", json_str name) ]
      else Printf.printf "- %s\n%!" name
    in
    let info fmt =
      Printf.ksprintf
        (fun s ->
          if json then
            jline [ ("event", json_str "info"); ("message", json_str s) ]
          else Printf.printf "    %s\n%!" s)
        fmt
    in
    if not json then
      Printf.printf "faultcheck: target %s, seed %d\n%!" target seed;
    let clean_report = R.Report.create () in
    let prep = Vega.Pipeline.prepare ~report:clean_report () in
    let cfg =
      {
        Vega.Pipeline.default_config with
        train_cfg = { Vega.Codebe.tiny_train_config with epochs = 0 };
      }
    in
    let t = Vega.Pipeline.train cfg prep in
    let decoder = Vega.Pipeline.retrieval_decoder t in
    check "clean corpus prepares without faults" (R.Report.total clean_report = 0);
    (* bit-exact rendering of generated functions, for identity checks *)
    let render (gfs : Vega.Generate.gen_func list) =
      String.concat "\n"
        (List.map
           (fun (gf : Vega.Generate.gen_func) ->
             Printf.sprintf "%s %h [%s]" gf.Vega.Generate.gf_fname
               gf.Vega.Generate.gf_confidence
               (String.concat ";"
                  (List.map
                     (fun (s : Vega.Generate.gen_stmt) ->
                       Printf.sprintf "%d,%d,%d,%h,%b,%s,%s"
                         s.Vega.Generate.g_col s.Vega.Generate.g_line
                         s.Vega.Generate.g_inst s.Vega.Generate.g_score
                         s.Vega.Generate.g_shape_ok
                         (R.Degrade.name s.Vega.Generate.g_level)
                         (String.concat " " s.Vega.Generate.g_tokens))
                     gf.Vega.Generate.gf_stmts)))
           gfs)
    in
    let rmf f = if Sys.file_exists f then Sys.remove f in
    let clear dir =
      rmf (Vega.Pipeline.journal_path dir);
      rmf (Vega.Pipeline.journal_path dir ^ ".tmp");
      rmf (Vega.Pipeline.checkpoint_path dir);
      rmf (Vega.Pipeline.checkpoint_path dir ^ ".tmp")
    in

    (* --kill-at narrows the run to the kill-and-resume determinism
       check, --shard-kill to the sharded-serving scenarios; without
       either the whole injection matrix runs first *)
    if kill_at = None && (not shard_only) && (not chaos_soak)
       && not stream_chaos
    then begin

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
         (fun (gf : Vega.Generate.gen_func) ->
           List.for_all
             (fun (s : Vega.Generate.gen_stmt) ->
               s.Vega.Generate.g_level = R.Degrade.Primary)
             gf.Vega.Generate.gf_stmts)
         baseline);
    let plain = Vega.Pipeline.generate_backend t ~target ~decoder in
    check "baseline: identical to the plain decoder path"
      (List.map Vega.Generate.source_of_all plain
      = List.map Vega.Generate.source_of_all baseline);

    (* ---- parallel determinism: fanning the functions over a domain
       pool must not change a single bit of the output ---- *)
    if domains > 1 then begin
      scenario (Printf.sprintf "parallel determinism (%d domains)" domains);
      let par = Vega.Pipeline.generate_backend ~domains t ~target ~decoder in
      check
        (Printf.sprintf "parallel: %d-domain run identical to sequential"
           domains)
        (List.map Vega.Generate.source_of_all par
         = List.map Vega.Generate.source_of_all plain
        && List.map
             (fun (gf : Vega.Generate.gen_func) ->
               Int64.bits_of_float gf.Vega.Generate.gf_confidence)
             par
           = List.map
               (fun (gf : Vega.Generate.gen_func) ->
                 Int64.bits_of_float gf.Vega.Generate.gf_confidence)
               plain)
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
    (* shared structural invariants over an injected generation run *)
    let check_degraded_run name report (gfs : Vega.Generate.gen_func list) =
      check (name ^ ": backend function count unchanged")
        (List.length gfs = List.length baseline);
      List.iter
        (fun (gf : Vega.Generate.gen_func) ->
          List.iter
            (fun (s : Vega.Generate.gen_stmt) ->
              let score = s.Vega.Generate.g_score in
              let level = s.Vega.Generate.g_level in
              if not (Float.is_finite score && score >= 0.0 && score <= 1.0)
              then violation "%s: non-finite or out-of-range score" name;
              if score > R.Degrade.cap level +. 1e-9 then
                violation "%s: score %.3f above the %s cap" name score
                  (R.Degrade.name level))
            gf.Vega.Generate.gf_stmts)
        gfs;
      check (name ^ ": degradations recorded for every sub-primary statement")
        (R.Report.degraded_count report
        = List.fold_left
            (fun acc (gf : Vega.Generate.gen_func) ->
              acc
              + List.length
                  (List.filter
                     (fun (s : Vega.Generate.gen_stmt) ->
                       s.Vega.Generate.g_level <> R.Degrade.Primary)
                     gf.Vega.Generate.gf_stmts))
            0 gfs)
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
    let decoder_scenario name kind ~every ~fallback ~expect_levels =
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
                   (fun (gf : Vega.Generate.gen_func) ->
                     List.exists
                       (fun (s : Vega.Generate.gen_stmt) ->
                         s.Vega.Generate.g_level = lv)
                       gf.Vega.Generate.gf_stmts)
                   gfs))
            expect_levels;
          info "injected %d, %s" (R.Inject.injected inj)
            (R.Report.summary report)
    in
    decoder_scenario "decoder-raise" R.Inject.Decoder_raise ~every:1
      ~fallback:(Some decoder) ~expect_levels:[ R.Degrade.Retrieval_fallback ];
    decoder_scenario "decoder-raise-retry" R.Inject.Decoder_raise ~every:2
      ~fallback:(Some decoder) ~expect_levels:[ R.Degrade.Retry ];
    decoder_scenario "decoder-nan" R.Inject.Decoder_nan ~every:3
      ~fallback:(Some decoder) ~expect_levels:[];
    decoder_scenario "decoder-garbage" R.Inject.Decoder_garbage ~every:3
      ~fallback:(Some decoder) ~expect_levels:[];
    (* no fallback decoder: the ladder must bottom out in template-default
       renders (sub-threshold by construction) or flagged omissions *)
    (let name = "decoder-raise-no-fallback" in
     scenario name;
     let inj = R.Inject.create ~seed ~every:1 R.Inject.Decoder_raise in
     let report = R.Report.create () in
     let wrapped fv = R.Inject.wrap_decoder inj decoder fv in
     match
       R.Stage.protect ~stage:name (fun () ->
           Vega.Pipeline.generate_backend ~report t ~target ~decoder:wrapped)
     with
     | Error f ->
         violation "%s: backend generation aborted (%s)" name
           (R.Fault.to_string f)
     | Ok gfs ->
         check_degraded_run name report gfs;
         List.iter
           (fun (gf : Vega.Generate.gen_func) ->
             List.iter
               (fun (s : Vega.Generate.gen_stmt) ->
                 match s.Vega.Generate.g_level with
                 | R.Degrade.Template_default | R.Degrade.Omitted -> ()
                 | lv ->
                     violation "%s: unexpected %s statement" name
                       (R.Degrade.name lv))
               gf.Vega.Generate.gf_stmts)
           gfs;
         check (name ^ ": no statement passes the accept threshold")
           (List.for_all
              (fun gf -> Vega.Generate.kept_stmts gf = [])
              gfs);
         info "injected %d, %s" (R.Inject.injected inj)
           (R.Report.summary report));

    (* ---- corpus corruption: prepare must drop only the mangled impls,
       record each one, and generation must still cover every group ---- *)
    (let name = "corpus-corruption" in
     scenario name;
     let inj = R.Inject.create ~seed ~every:5 R.Inject.Corpus_mangle in
     let corpus = R.Inject.corrupt_corpus inj (Vega_corpus.Corpus.build ()) in
     let report = R.Report.create () in
     match
       R.Stage.protect ~stage:name (fun () ->
           let prep2 = Vega.Pipeline.prepare ~report ~corpus () in
           let t2 = Vega.Pipeline.train cfg prep2 in
           Vega.Pipeline.generate_backend ~report t2 ~target
             ~decoder:(Vega.Pipeline.retrieval_decoder t2))
     with
     | Error f ->
         violation "%s: pipeline aborted (%s)" name (R.Fault.to_string f)
     | Ok gfs ->
         check (name ^ ": at least one group corrupted")
           (R.Inject.injected inj > 0);
         check (name ^ ": every corrupted impl observed in the report")
           (R.Report.count_class report R.Fault.Ccorpus = R.Inject.injected inj);
         check_degraded_run name report gfs;
         info "injected %d, %s" (R.Inject.injected inj)
           (R.Report.summary report));

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
     match
       R.Stage.protect ~stage:name (fun () ->
           let prep3 = Vega.Pipeline.prepare ~report ~corpus () in
           let t3 = Vega.Pipeline.train cfg prep3 in
           Vega.Pipeline.generate_backend ~report t3 ~target
             ~decoder:(Vega.Pipeline.retrieval_decoder t3))
     with
     | Error f ->
         violation "%s: pipeline aborted (%s)" name (R.Fault.to_string f)
     | Ok gfs ->
         check (name ^ ": backend function count unchanged")
           (List.length gfs = List.length baseline);
         List.iter
           (fun (gf : Vega.Generate.gen_func) ->
             List.iter
               (fun (s : Vega.Generate.gen_stmt) ->
                 if
                   not
                     (Float.is_finite s.Vega.Generate.g_score
                     && s.Vega.Generate.g_score >= 0.0
                     && s.Vega.Generate.g_score <= 1.0)
                 then violation "%s: out-of-range score" name)
               gf.Vega.Generate.gf_stmts)
           gfs;
         info "corrupted %d file(s), %s"
           (List.length corrupted) (R.Report.summary report));

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
     let vfs = prep.Vega.Pipeline.corpus.Vega_corpus.Corpus.vfs in
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
    let serve_fnames =
      List.map
        (fun (b : Vega.Pipeline.bundle) ->
          b.Vega.Pipeline.spec.Vega_corpus.Spec.fname)
        t.Vega.Pipeline.prep.Vega.Pipeline.bundles
    in
    check "corpus has function templates to serve" (serve_fnames <> []);

    (* overload at 4x queue capacity: the bounded queue sheds instead of
       growing, and — the workers being paused while the seeded storm
       submits — the accept/reject sequence is a pure function of the
       submission order, so equal seeds give equal sequences ---- *)
    (let name = "serve-overload" in
     scenario name;
     let cap = 4 in
     let n = 4 * cap in
     let scfg =
       {
         S.Server.default_config with
         S.Server.domains = 1;
         queue_cap = cap;
         client_burst = float_of_int (2 * n);
         client_rate = 0.0;
       }
     in
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
                   {
                     S.Proto.rq_client = Printf.sprintf "c%d" (i mod 3);
                     rq_target = target;
                     rq_fname =
                       List.nth serve_fnames (i mod List.length serve_fnames);
                     rq_deadline_ms = None;
                   })
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
         S.Server.default_config with
         S.Server.domains = 1;
         queue_cap = List.length serve_fnames + 4;
         deadline_ms = 50;
         client_burst = 1000.0;
         client_rate = 0.0;
       }
     in
     let inj = R.Inject.create ~seed ~every:1 R.Inject.Decoder_stall in
     let stalling fv =
       R.Inject.wrap_stalling_decoder inj
         ~stall:(fun () -> vnow := !vnow +. 1.0)
         decoder fv
     in
     let mk fname =
       {
         S.Proto.rq_client = "dl";
         rq_target = target;
         rq_fname = fname;
         rq_deadline_ms = None;
       }
     in
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
           (List.for_all
              (function S.Proto.Done _ -> true | _ -> false)
              replies);
         check (name ^ ": at least one reply reports degraded statements")
           (List.exists
              (function
                | S.Proto.Done d -> d.r_degraded > 0 | _ -> false)
              replies);
         List.iter
           (fun (gf : Vega.Generate.gen_func) ->
             List.iter
               (fun (s : Vega.Generate.gen_stmt) ->
                 if
                   s.Vega.Generate.g_score
                   > R.Degrade.cap s.Vega.Generate.g_level +. 1e-9
                 then
                   violation "%s: score above the %s cap" name
                     (R.Degrade.name s.Vega.Generate.g_level))
               gf.Vega.Generate.gf_stmts)
           (S.Server.functions srv);
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
       {
         S.Server.default_config with
         S.Server.domains = 1;
         queue_cap = List.length serve_fnames + 4;
         client_burst = 1000.0;
         client_rate = 0.0;
       }
     in
     let mk fname =
       {
         S.Proto.rq_client = "kr";
         rq_target = target;
         rq_fname = fname;
         rq_deadline_ms = None;
       }
     in
     let ref_dir = Filename.concat run_dir "serve-ref" in
     clear ref_dir;
     match S.Server.create ~config:dcfg ~run_dir:ref_dir t ~target ~decoder with
     | Error e -> violation "%s: reference server failed (%s)" name e
     | Ok srv -> (
         let replies =
           List.map (fun f -> S.Server.request srv (mk f)) serve_fnames
         in
         check (name ^ ": reference run completes every request")
           (List.for_all
              (function S.Proto.Done _ -> true | _ -> false)
              replies);
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
             | exception R.Journal.Killed n ->
                 check
                   (Printf.sprintf
                      "%s: crash lands on the armed record (kill-at %d)" name
                      k)
                   (n = k));
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
                   (List.for_all
                      (function S.Proto.Done _ -> true | _ -> false)
                      replies);
                 check (name ^ ": restored functions reply as resumed")
                   (List.exists
                      (function
                        | S.Proto.Done d -> d.r_resumed | _ -> false)
                      replies);
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
    end;

    (* ---- kill-and-resume determinism: crash after K durable records,
       tear the tail mid-record, resume, and require output bit-identical
       to an uninterrupted run ---- *)
    if (not shard_only) && (not chaos_soak) && not stream_chaos then
    (let name = "kill-resume" in
     scenario name;
     let ref_dir = Filename.concat run_dir "ref" in
     clear ref_dir;
     match
       Vega.Pipeline.generate_backend_durable ~run_dir:ref_dir t ~target
         ~decoder
     with
     | Error e -> violation "%s: reference run failed (%s)" name e
     | Ok refo ->
         let expect = render refo.Vega.Pipeline.d_funcs in
         let total = refo.Vega.Pipeline.d_records in
         info "reference run: %d journal record(s)" total;
         let offsets =
           match kill_at with
           | Some k when k > 0 -> [ k ]
           | _ ->
               List.filter
                 (fun k -> k >= 1)
                 (List.sort_uniq compare [ 1; (total + 1) / 2; total - 1 ])
         in
         List.iter
           (fun k ->
             let dir = Filename.concat run_dir (Printf.sprintf "kill%d" k) in
             clear dir;
             match
               Vega.Pipeline.generate_backend_durable ~kill_at:k ~domains
                 ~run_dir:dir t ~target ~decoder
             with
             | exception R.Journal.Killed n ->
                 check
                   (Printf.sprintf "%s: crash lands on the armed record \
                                    (kill-at %d)" name k)
                   (n = k);
                 (* tear the last durable record mid-write — except the
                    lone header, without which there is nothing to resume *)
                 if k > 1 then
                   R.Journal.tear ~path:(Vega.Pipeline.journal_path dir);
                 (match
                    Vega.Pipeline.generate_backend_durable ~resume:true
                      ~domains ~run_dir:dir t ~target ~decoder
                  with
                 | Error e ->
                     violation "%s: resume after kill-at %d failed (%s)" name
                       k e
                 | Ok o ->
                     if k > 1 then
                       check
                         (Printf.sprintf
                            "%s: torn record recovered (kill-at %d)" name k)
                         o.Vega.Pipeline.d_torn;
                     check
                       (Printf.sprintf
                          "%s: resume covers every function (kill-at %d)"
                          name k)
                       (List.length o.Vega.Pipeline.d_funcs
                       = List.length refo.Vega.Pipeline.d_funcs);
                     if render o.Vega.Pipeline.d_funcs <> expect then
                       violation
                         "%s: resumed output differs from the uninterrupted \
                          run (kill-at %d)"
                         name k
                     else
                       info
                         "kill-at %d: bit-identical after resume (%d \
                          resumed, %d regenerated)"
                         k o.Vega.Pipeline.d_resumed
                         o.Vega.Pipeline.d_generated)
             | Ok o ->
                 check
                   (Printf.sprintf
                      "%s: kill-at %d beyond the run end completes" name k)
                   (o.Vega.Pipeline.d_records < k);
                 if render o.Vega.Pipeline.d_funcs <> expect then
                   violation "%s: un-killed run differs (kill-at %d)" name k
             | Error e ->
                 violation "%s: killed run setup failed (kill-at %d: %s)"
                   name k e)
           offsets);

    (* ---- sharded serving: content-addressed cache round-trip and the
       shard-storm-kill determinism check ---- *)
    if kill_at = None && (not chaos_soak) && not stream_chaos then begin
      let fleet_fnames =
        List.map
          (fun (b : Vega.Pipeline.bundle) ->
            b.Vega.Pipeline.spec.Vega_corpus.Spec.fname)
          t.Vega.Pipeline.prep.Vega.Pipeline.bundles
      in
      let fingerprint = Vega.Pipeline.fingerprint t ~target in
      let desc_hash =
        Sh.Cache.desc_hash_of_vfs
          t.Vega.Pipeline.prep.Vega.Pipeline.corpus.Vega_corpus.Corpus.vfs
          ~target
      in
      let mkreq fname =
        {
          S.Proto.rq_client = "shard";
          rq_target = target;
          rq_fname = fname;
          rq_deadline_ms = None;
        }
      in
      let merge_funcs lists =
        let tbl = Hashtbl.create 32 in
        List.iter
          (List.iter (fun (gf : Vega.Generate.gen_func) ->
               if not (Hashtbl.mem tbl gf.Vega.Generate.gf_fname) then
                 Hashtbl.add tbl gf.Vega.Generate.gf_fname gf))
          lists;
        List.sort
          (fun (a : Vega.Generate.gen_func) (b : Vega.Generate.gen_func) ->
            compare a.Vega.Generate.gf_fname b.Vega.Generate.gf_fname)
          (Hashtbl.fold (fun _ gf acc -> gf :: acc) tbl [])
      in

      (* ---- the cache answers repeats bit-identically with zero decoder
         involvement; a flipped byte is detected, evicted, recorded as a
         fault, and the request falls through to generation ---- *)
      (let name = "shard-cache" in
       scenario name;
       let decodes = Atomic.make 0 in
       let counting fv =
         Atomic.incr decodes;
         decoder fv
       in
       let scfg =
         {
           S.Server.default_config with
           S.Server.domains = 1;
           queue_cap = List.length fleet_fnames + 4;
           client_burst = 1000.0;
           client_rate = 0.0;
         }
       in
       let cache_dir = Filename.concat run_dir "shard-cache" in
       (if Sys.file_exists cache_dir then
          Array.iter
            (fun f ->
              if
                Filename.check_suffix f Sh.Cache.entry_ext
                || Filename.check_suffix f ".tmp"
              then rmf (Filename.concat cache_dir f))
            (Sys.readdir cache_dir));
       let report = R.Report.create () in
       let cache =
         Sh.Cache.create ~report ~dir:cache_dir ~fingerprint ~desc_hash ()
       in
       let rcfg =
         {
           Sh.Router.default_config with
           Sh.Router.retries = 0;
           probe_every = 0;
           seed;
         }
       in
       (* a fresh two-shard fleet per round: a repeat answered by a new
          fleet can only have come from the cache, never a shard's
          in-memory replay table *)
       let with_fleet k =
         let mk_srv () =
           S.Server.create ~config:scfg t ~target ~decoder:counting
         in
         match (mk_srv (), mk_srv ()) with
         | Ok a, Ok b -> (
             let eps =
               [ Sh.Router.of_server ~name:"s0" a;
                 Sh.Router.of_server ~name:"s1" b ]
             in
             match
               Sh.Router.create ~config:rcfg ~cache ~report
                 ~sleep:(fun _ -> ())
                 ~fingerprint ~desc_hash eps
             with
             | Error e ->
                 violation "%s: router creation failed (%s)" name e;
                 None
             | Ok router ->
                 let r = k router in
                 Sh.Router.drain router;
                 Some r)
         | Error e, _ | _, Error e ->
             violation "%s: shard server failed to start (%s)" name e;
             None
       in
       let round fnames =
         with_fleet (fun router ->
             let replies =
               List.map (fun f -> Sh.Router.route router (mkreq f)) fnames
             in
             (Sh.Router.decisions router, replies))
       in
       match round fleet_fnames with
       | None -> ()
       | Some (d1, replies1) -> (
           let cold = Atomic.get decodes in
           check (name ^ ": cold round reaches the decoder") (cold > 0);
           check (name ^ ": cold round is answered by the shards")
             (String.for_all (fun c -> c = 'A') d1);
           check (name ^ ": cold round completes every request")
             (List.for_all
                (function S.Proto.Done _ -> true | _ -> false)
                replies1);
           match round fleet_fnames with
           | None -> ()
           | Some (d2, replies2) -> (
               check (name ^ ": warm round is answered entirely by the cache")
                 (d2 = String.make (List.length fleet_fnames) 'C');
               check (name ^ ": cache hits touch no decoder")
                 (Atomic.get decodes = cold);
               check (name ^ ": cached replies bit-identical to the cold round")
                 (List.map S.Proto.encode_reply replies2
                 = List.map S.Proto.encode_reply replies1);
               let victim_f = List.hd fleet_fnames in
               let cinj = R.Inject.create ~seed R.Inject.Cache_corrupt in
               match
                 R.Inject.corrupt_cache_entry cinj
                   ~path:(Sh.Cache.path cache ~fname:victim_f)
               with
               | None -> violation "%s: no cache entry to corrupt" name
               | Some off -> (
                   info "flipped byte %d of %s's cache entry" off victim_f;
                   match round [ victim_f ] with
                   | None -> ()
                   | Some (d3, replies3) ->
                       check
                         (name
                        ^ ": corrupt entry falls through to generation")
                         (d3 = "A" && Atomic.get decodes > cold);
                       check (name ^ ": corruption recorded as a cache fault")
                         (R.Report.count_class report R.Fault.Ccache >= 1);
                       check
                         (name
                        ^ ": regenerated reply bit-identical to the cold one")
                         (List.map S.Proto.encode_reply replies3
                         = [ S.Proto.encode_reply (List.hd replies1) ]);
                       let st = Sh.Cache.stats cache in
                       check (name ^ ": corrupt entry evicted")
                         (st.Sh.Cache.c_evictions >= 1);
                       check (name ^ ": regenerated result re-cached")
                         (Sh.Cache.get cache ~fname:victim_f <> None);
                       info
                         "cache: %d hit(s), %d miss(es), %d put(s), %d \
                          eviction(s), %d entries"
                         st.Sh.Cache.c_hits st.Sh.Cache.c_misses
                         st.Sh.Cache.c_puts st.Sh.Cache.c_evictions
                         st.Sh.Cache.c_entries))));

      (* ---- kill 1 of 3 shards at 4x aggregate queue capacity mid-storm:
         the accept/reroute/shed sequence is byte-reproducible under the
         seed, the restarted shard resumes from its own journal, and the
         final generated outputs are bit-identical to the unkilled run ---- *)
      (let name = "shard-storm-kill" in
       scenario name;
       let shards_n = 3 in
       let cap = 4 in
       let nf = List.length fleet_fnames in
       let n = 4 * shards_n * cap in
       let scfg =
         {
           S.Server.default_config with
           S.Server.domains = 1;
           queue_cap = cap;
           client_burst = float_of_int (2 * n);
           client_rate = 0.0;
         }
       in
       let storm = R.Inject.create ~seed R.Inject.Queue_storm in
       let storm_fnames =
         List.map
           (fun i -> List.nth fleet_fnames (i mod nf))
           (R.Inject.storm_order storm n)
       in
       let rcfg policy =
         {
           Sh.Router.default_config with
           Sh.Router.policy;
           retries = 0;
           probe_every = 0;
           breaker_threshold = 2;
           breaker_cooldown = 4;
           seed;
         }
       in
       let names = List.init shards_n (Printf.sprintf "shard-%d") in
       (* the same pure ring the router builds, to name each key's owner *)
       let ring =
         Sh.Ring.create
           ~replicas:Sh.Router.default_config.Sh.Router.replicas names
       in
       let owner fname =
         Sh.Ring.lookup ring
           (Sh.Cache.request_key ~fingerprint ~desc_hash ~fname)
       in
       let storm_dir tag = Filename.concat run_dir ("shard-storm-" ^ tag) in
       (* a three-shard fleet, each with its own journal segment; [kill]
          arms one shard's journal with a crash offset *)
       let mk_fleet ~tag ~policy ~kill =
         let rec go i acc =
           if i < 0 then Some acc
           else begin
             let dir = Sh.Router.shard_run_dir (storm_dir tag) i in
             clear dir;
             let kill_at =
               match kill with Some (v, at) when v = i -> Some at | _ -> None
             in
             match
               S.Server.create ~config:scfg ~run_dir:dir ?kill_at t ~target
                 ~decoder
             with
             | Ok srv -> go (i - 1) (srv :: acc)
             | Error e ->
                 violation "%s: shard %d failed to start (%s)" name i e;
                 None
           end
         in
         match go (shards_n - 1) [] with
         | None -> None
         | Some servers -> (
             let eps =
               List.mapi
                 (fun i srv ->
                   Sh.Router.of_server ~name:(Printf.sprintf "shard-%d" i) srv)
                 servers
             in
             let report = R.Report.create () in
             match
               Sh.Router.create ~config:(rcfg policy) ~report
                 ~sleep:(fun _ -> ())
                 ~fingerprint ~desc_hash eps
             with
             | Error e ->
                 violation "%s: router creation failed (%s)" name e;
                 None
             | Ok router -> Some (servers, router, report))
       in
       match mk_fleet ~tag:"ref" ~policy:Sh.Router.Reroute ~kill:None with
       | None -> ()
       | Some (ref_servers, ref_router, _) -> (
           let ref_replies =
             List.map (fun f -> Sh.Router.route ref_router (mkreq f))
               storm_fnames
           in
           let d_ref = Sh.Router.decisions ref_router in
           check (name ^ ": unkilled storm completes every request")
             (List.for_all
                (function S.Proto.Done _ -> true | _ -> false)
                ref_replies);
           check (name ^ ": unkilled storm routes every request to its owner")
             (d_ref = String.make n 'A');
           let expect =
             render (merge_funcs (List.map S.Server.functions ref_servers))
           in
           let kinj = R.Inject.create ~seed R.Inject.Shard_kill in
           let victim = R.Inject.shard_victim kinj ~shards:shards_n in
           let victim_name = Printf.sprintf "shard-%d" victim in
           (* the victim's share of the storm — the functions the
              restarted shard must serve again for the final-output
              identity check to cover the same set as the reference *)
           let victim_fnames =
             List.filter
               (fun f -> owner f = victim_name)
               (List.sort_uniq compare storm_fnames)
           in
           check (name ^ ": the victim owns at least one function")
             (victim_fnames <> []);
           let victim_records =
             (S.Server.health (List.nth ref_servers victim))
               .S.Health.h_journal_records
           in
           Sh.Router.drain ref_router;
           (* clamp into the middle half of the victim's journal: past the
              midpoint so at least one function is durably complete when
              the crash lands, short of the tail so a meaningful stretch
              of the storm still reroutes *)
           let k =
             max
               (max 2 (victim_records / 2))
               (min
                  (R.Inject.kill_offset kinj ~records:victim_records)
                  (victim_records * 3 / 4))
           in
           info "victim shard-%d, kill-at %d of its %d journal record(s)"
             victim k victim_records;
           let killed_run ~tag ~policy =
             match mk_fleet ~tag ~policy ~kill:(Some (victim, k)) with
             | None -> None
             | Some (servers, router, report) ->
                 let replies =
                   List.map (fun f -> Sh.Router.route router (mkreq f))
                     storm_fnames
                 in
                 let d = Sh.Router.decisions router in
                 let funcs = List.map S.Server.functions servers in
                 (match Sh.Router.drain router with
                 | () -> violation "%s: kill-at %d never fired (%s)" name k tag
                 | exception R.Journal.Killed rn ->
                     check
                       (Printf.sprintf
                          "%s: crash lands on the armed record (kill-at %d)"
                          name k)
                       (rn = k));
                 check (name ^ ": shard failures recorded by the router")
                   (R.Report.count_class report R.Fault.Cshard > 0);
                 Some (d, replies, funcs)
           in
           match
             ( killed_run ~tag:"kill-a" ~policy:Sh.Router.Reroute,
               killed_run ~tag:"kill-b" ~policy:Sh.Router.Reroute )
           with
           | Some (d1, replies1, funcs1), Some (d2, _, _) -> (
               check (name ^ ": same seed, same accept/reroute sequence")
                 (d1 = d2);
               check (name ^ ": reroute policy still completes every request")
                 (List.for_all
                    (function S.Proto.Done _ -> true | _ -> false)
                    replies1);
               check (name ^ ": at least one request rerouted off the victim")
                 (String.contains d1 'R');
               info "reroute decisions %s" d1;
               (match killed_run ~tag:"shed" ~policy:Sh.Router.Shed with
               | None -> ()
               | Some (d3, replies3, _) ->
                   check
                     (name
                    ^ ": shed decisions differ from reroute exactly at R->D")
                     (String.length d3 = String.length d1
                     && List.for_all2
                          (fun a b -> a = b || (a = 'R' && b = 'D'))
                          (List.init (String.length d1) (String.get d1))
                          (List.init (String.length d3) (String.get d3)));
                   check (name ^ ": at least one request shed") (String.contains d3 'D');
                   List.iteri
                     (fun i reply ->
                       if d3.[i] = 'D' then
                         match reply with
                         | S.Proto.Rejected (S.Proto.Shard_down { shard })
                           when shard = victim_name ->
                             ()
                         | _ ->
                             violation
                               "%s: shed request %d lacks a shard-down \
                                rejection naming the victim"
                               name i)
                     replies3);
               (* the victim's own journal segment: tear the tail (when
                  there is more than the header plus one record to lose),
                  restart, and the shard resumes its own functions *)
               let victim_dir =
                 Sh.Router.shard_run_dir (storm_dir "kill-a") victim
               in
               if k > 2 then
                 R.Journal.tear ~path:(Vega.Pipeline.journal_path victim_dir);
               match
                 S.Server.create ~config:scfg ~run_dir:victim_dir ~resume:true
                   t ~target ~decoder
               with
               | Error e -> violation "%s: victim resume failed (%s)" name e
               | Ok rsrv ->
                   let restored = S.Server.resumed_functions rsrv in
                   check
                     (name
                    ^ ": restarted victim resumes from its own journal")
                     (restored > 0);
                   let vreplies =
                     List.map
                       (fun f -> S.Server.request rsrv (mkreq f))
                       victim_fnames
                   in
                   check (name ^ ": restarted victim answers its functions")
                     (List.for_all
                        (function S.Proto.Done _ -> true | _ -> false)
                        vreplies);
                   check (name ^ ": at least one reply restored from journal")
                     (List.exists
                        (function
                          | S.Proto.Done { r_resumed; _ } -> r_resumed
                          | _ -> false)
                        vreplies);
                   let survivors =
                     List.filteri (fun i _ -> i <> victim) funcs1
                   in
                   let got =
                     render
                       (merge_funcs (S.Server.functions rsrv :: survivors))
                   in
                   S.Server.drain rsrv;
                   if got <> expect then
                     violation
                       "%s: final outputs differ from the unkilled run \
                        (kill-at %d)"
                       name k
                   else
                     info
                       "kill-at %d: final outputs bit-identical (%d \
                        resumed on shard-%d)"
                       k restored victim)
           | _ -> ()))
    end;

    (* ---- chaos soak: R seeded rounds composing shard kills, probe-drop
       stalls, refused respawns (flap -> quarantine), cache corruption and
       version skew against a self-healing fleet.  Invariants per round:
       zero lost requests, byte-equal decision and event logs across
       same-seed repeats, quarantined shards frozen out of traffic with
       every affected request answered by a typed rejection, and merged
       outputs bit-identical to an unkilled single-shard reference. ---- *)
    if chaos_soak && kill_at = None && not stream_chaos then begin
      let fleet_fnames =
        List.map
          (fun (b : Vega.Pipeline.bundle) ->
            b.Vega.Pipeline.spec.Vega_corpus.Spec.fname)
          t.Vega.Pipeline.prep.Vega.Pipeline.bundles
      in
      let fingerprint = Vega.Pipeline.fingerprint t ~target in
      let desc_hash =
        Sh.Cache.desc_hash_of_vfs
          t.Vega.Pipeline.prep.Vega.Pipeline.corpus.Vega_corpus.Corpus.vfs
          ~target
      in
      let mkreq fname =
        {
          S.Proto.rq_client = "chaos";
          rq_target = target;
          rq_fname = fname;
          rq_deadline_ms = None;
        }
      in
      let merge_funcs lists =
        let tbl = Hashtbl.create 32 in
        List.iter
          (List.iter (fun (gf : Vega.Generate.gen_func) ->
               if not (Hashtbl.mem tbl gf.Vega.Generate.gf_fname) then
                 Hashtbl.add tbl gf.Vega.Generate.gf_fname gf))
          lists;
        List.sort
          (fun (a : Vega.Generate.gen_func) (b : Vega.Generate.gen_func) ->
            compare a.Vega.Generate.gf_fname b.Vega.Generate.gf_fname)
          (Hashtbl.fold (fun _ gf acc -> gf :: acc) tbl [])
      in
      let contains_sub s sub =
        let sn = String.length sub and sm = String.length s in
        let rec go i = i + sn <= sm && (String.sub s i sn = sub || go (i + 1)) in
        go 0
      in
      let name = "chaos-soak" in
      scenario name;
      let nf = List.length fleet_fnames in
      check (name ^ ": corpus provides functions to serve") (nf > 0);
      if nf > 0 then begin
        let shards_n = 3 in
        let rounds = max 1 soak_rounds in
        let scfg =
          {
            S.Server.default_config with
            S.Server.domains = 1;
            queue_cap = 128;
            client_burst = 100000.0;
            client_rate = 0.0;
          }
        in
        (* the unkilled single-shard reference every round must match *)
        match S.Server.create ~config:scfg t ~target ~decoder with
        | Error e -> violation "%s: reference server failed to start (%s)" name e
        | Ok ref_srv ->
            let ref_replies =
              List.map (fun f -> (f, S.Server.request ref_srv (mkreq f)))
                fleet_fnames
            in
            check (name ^ ": reference run completes every request")
              (List.for_all
                 (fun (_, r) ->
                   match r with S.Proto.Done _ -> true | _ -> false)
                 ref_replies);
            let expect = render (merge_funcs [ S.Server.functions ref_srv ]) in
            S.Server.drain ref_srv;
            let shard_names =
              List.init shards_n (Printf.sprintf "shard-%d")
            in
            let ring =
              Sh.Ring.create
                ~replicas:Sh.Router.default_config.Sh.Router.replicas
                shard_names
            in
            let owner fname =
              Sh.Ring.lookup ring
                (Sh.Cache.request_key ~fingerprint ~desc_hash ~fname)
            in
            let owned nm = List.filter (fun f -> owner f = nm) fleet_fnames in
            (* the largest owner is a fallback victim whose armed kill is
               guaranteed at least two journal records even behind a cache
               (the cache dedups repeats, so a one-key shard may never
               reach its second record) *)
            let max_owner =
              List.fold_left
                (fun best nm ->
                  if List.length (owned nm) > List.length (owned best) then nm
                  else best)
                (List.hd shard_names) shard_names
            in
            for round = 0 to rounds - 1 do
              let sub = seed + (round * 7919) in
              (* three fault mixes, cycling when more rounds are asked for:
                 0 = kill + cache corruption + version skew;
                 1 = kill + probe-drop stall (hedging, no cache);
                 2 = kill + refused respawn (flap -> quarantine, shed twin) *)
              let cache_round = round mod 3 = 0 in
              let stall_round = round mod 3 = 1 in
              let flap_round = round mod 3 = 2 in
              let kinj = R.Inject.create ~seed:sub R.Inject.Shard_kill in
              let victim_name =
                let c =
                  Printf.sprintf "shard-%d"
                    (R.Inject.shard_victim kinj ~shards:shards_n)
                in
                if List.length (owned c) >= 2 then c else max_owner
              in
              let stall_name =
                let cands =
                  List.filter (fun nm -> nm <> victim_name) shard_names
                in
                let preferred =
                  List.filter (fun nm -> owned nm <> []) cands
                in
                let pool = if preferred <> [] then preferred else cands in
                List.nth pool (abs sub mod List.length pool)
              in
              let kill_k = 2 in
              let storm = R.Inject.create ~seed:sub R.Inject.Queue_storm in
              let passes = if flap_round then 6 else 4 in
              let n = passes * nf in
              let storm_fnames =
                List.map
                  (fun i -> List.nth fleet_fnames (i mod nf))
                  (R.Inject.storm_order storm n)
              in
              info "round %d: victim %s (kill-at %d)%s%s, seed %d" round
                victim_name kill_k
                (if stall_round then ", probes dropped on " ^ stall_name
                 else "")
                (if flap_round then ", respawns refused (flap)" else "")
                sub;
              let run_one ~tag ~policy =
                let base =
                  Filename.concat run_dir
                    (Printf.sprintf "chaos-%d-%s" round tag)
                in
                let contacts = Hashtbl.create 4 in
                let hits nm =
                  Option.value ~default:0 (Hashtbl.find_opt contacts nm)
                in
                let wrap_endpoint nm ep =
                  {
                    ep with
                    Sh.Router.ep_request =
                      (fun rq ->
                        Hashtbl.replace contacts nm (hits nm + 1);
                        ep.Sh.Router.ep_request rq);
                  }
                in
                let pinj = R.Inject.create ~seed:sub R.Inject.Probe_drop in
                let wrap_probe shard probe =
                  if stall_round && shard = stall_name then
                    R.Inject.wrap_dropping_probe pinj ~shard probe ()
                  else probe ()
                in
                let report = R.Report.create () in
                let cache =
                  if not cache_round then None
                  else begin
                    let dir = Filename.concat base "cache" in
                    (if Sys.file_exists dir then
                       Array.iter
                         (fun f ->
                           if
                             Filename.check_suffix f Sh.Cache.entry_ext
                             || Filename.check_suffix f ".tmp"
                           then rmf (Filename.concat dir f))
                         (Sys.readdir dir));
                    Some
                      (Sh.Cache.create ~report ~dir ~fingerprint ~desc_hash
                         ())
                  end
                in
                let specs =
                  List.init shards_n (fun i ->
                      let nm = Printf.sprintf "shard-%d" i in
                      let dir = Sh.Router.shard_run_dir base i in
                      clear dir;
                      {
                        F.sp_name = nm;
                        sp_spawn =
                          (fun ~epoch ~resume ->
                            if flap_round && nm = victim_name && resume then
                              Error "respawn refused (chaos)"
                            else
                              S.Server.create ~config:scfg ~run_dir:dir
                                ~resume
                                ?kill_at:
                                  (if nm = victim_name && epoch = 0 then
                                     Some kill_k
                                   else None)
                                ~epoch t ~target ~decoder);
                      })
                in
                let fcfg =
                  {
                    F.default_config with
                    F.probe_every = 2;
                    probe_patience = 2;
                    flap_k = 3;
                    flap_window = 256;
                    backoff_base = 1;
                    seed = sub;
                  }
                in
                let rcfg =
                  {
                    Sh.Router.default_config with
                    Sh.Router.policy;
                    retries = 0;
                    probe_every = 0;
                    breaker_threshold = 2;
                    breaker_cooldown = 4;
                    hedge_after = 2;
                    seed = sub;
                  }
                in
                match
                  F.create ~config:fcfg ~router_config:rcfg ?cache ~report
                    ~wrap_endpoint ~wrap_probe ~fingerprint ~desc_hash specs
                with
                | Error e ->
                    violation "%s[%d,%s]: fleet failed to boot (%s)" name
                      round tag e;
                    None
                | Ok fleet ->
                    let route f =
                      match F.request fleet (mkreq f) with
                      | r -> r
                      | exception e ->
                          violation
                            "%s[%d,%s]: raw exception escaped the router \
                             (%s)"
                            name round tag (Printexc.to_string e);
                          S.Proto.Failed "escaped"
                    in
                    let replies = List.map route storm_fnames in
                    (* mid-round cache corruption: the poisoned key must be
                       detected, evicted, recorded, and regenerated *)
                    let extra =
                      match cache with
                      | None -> []
                      | Some c -> (
                          let cinj =
                            R.Inject.create ~seed:sub R.Inject.Cache_corrupt
                          in
                          let victim_f =
                            List.nth fleet_fnames (abs sub mod nf)
                          in
                          match
                            R.Inject.corrupt_cache_entry cinj
                              ~path:(Sh.Cache.path c ~fname:victim_f)
                          with
                          | None ->
                              violation
                                "%s[%d,%s]: no cache entry to corrupt" name
                                round tag;
                              []
                          | Some _ -> [ (victim_f, route victim_f) ])
                    in
                    (* a version-skewed peer line gets the typed mismatch,
                       never a crash or a silent drop *)
                    (match
                       S.Proto.decode_reply
                         (F.request_line fleet
                            (S.Proto.encode_command_at ~version:99
                               (S.Proto.Creq (mkreq (List.hd fleet_fnames)))))
                     with
                    | S.Proto.Decoded
                        (S.Proto.Rejected
                           (S.Proto.Version_mismatch { got = 99; _ })) ->
                        ()
                    | _ ->
                        violation
                          "%s[%d,%s]: version-skewed line not answered with \
                           the typed mismatch"
                          name round tag);
                    (* quarantined shards must be frozen out: snapshot their
                       contact counts, sweep every function again, require
                       no growth and no live-ring membership *)
                    let q = F.quarantined fleet in
                    let frozen = List.map (fun (nm, _) -> (nm, hits nm)) q in
                    List.iter
                      (fun (nm, _) ->
                        if
                          List.mem nm
                            (Sh.Router.live_shards (F.router fleet))
                        then
                          violation
                            "%s[%d,%s]: quarantined %s still in the live \
                             ring"
                            name round tag nm)
                      q;
                    let tail = List.map route fleet_fnames in
                    List.iter
                      (fun (nm, n0) ->
                        if hits nm <> n0 then
                          violation
                            "%s[%d,%s]: quarantined %s received traffic \
                             after quarantine"
                            name round tag nm)
                      frozen;
                    let recovery =
                      let detect =
                        List.filter_map
                          (function
                            | F.Crash_detected { shard; decision }
                              when shard = victim_name ->
                                Some decision
                            | _ -> None)
                          (F.events fleet)
                      and respawned =
                        List.filter_map
                          (function
                            | F.Respawned { shard; decision; _ }
                              when shard = victim_name ->
                                Some decision
                            | _ -> None)
                          (F.events fleet)
                      in
                      match (detect, respawned) with
                      | d0 :: _, d1 :: _ -> Some (d1 - d0)
                      | _ -> None
                    in
                    let out =
                      {
                        sk_d = Sh.Router.decisions (F.router fleet);
                        sk_ev = F.event_log fleet;
                        sk_replies = replies;
                        sk_extra = extra;
                        sk_tail = tail;
                        sk_funcs =
                          List.map
                            (fun (_, srv) -> S.Server.functions srv)
                            (F.servers fleet);
                        sk_q = q;
                        sk_report = report;
                        sk_recovery = recovery;
                        sk_epoch = F.epoch fleet victim_name;
                      }
                    in
                    (try F.drain fleet
                     with e ->
                       violation "%s[%d,%s]: drain raised (%s)" name round
                         tag (Printexc.to_string e));
                    Some out
              in
              (match
                 ( run_one ~tag:"a" ~policy:Sh.Router.Reroute,
                   run_one ~tag:"b" ~policy:Sh.Router.Reroute )
               with
              | Some a, Some b ->
                  let all_replies r =
                    r.sk_replies @ List.map snd r.sk_extra @ r.sk_tail
                  in
                  check
                    (Printf.sprintf
                       "%s[%d]: zero lost requests (every reply Done under \
                        reroute)"
                       name round)
                    (List.for_all
                       (function S.Proto.Done _ -> true | _ -> false)
                       (all_replies a));
                  check
                    (Printf.sprintf
                       "%s[%d]: same seed, byte-equal decision logs" name
                       round)
                    (a.sk_d = b.sk_d);
                  check
                    (Printf.sprintf
                       "%s[%d]: same seed, byte-equal fleet event logs" name
                       round)
                    (a.sk_ev = b.sk_ev);
                  check
                    (Printf.sprintf
                       "%s[%d]: same seed, bit-identical replies" name round)
                    (List.map S.Proto.encode_reply (all_replies a)
                    = List.map S.Proto.encode_reply (all_replies b));
                  check
                    (Printf.sprintf "%s[%d]: victim crash detected" name
                       round)
                    (contains_sub a.sk_ev ("K" ^ victim_name));
                  check
                    (Printf.sprintf
                       "%s[%d]: at least one request rerouted off the \
                        victim"
                       name round)
                    (String.contains a.sk_d 'R');
                  if flap_round then begin
                    check
                      (Printf.sprintf "%s[%d]: flapping victim quarantined"
                         name round)
                      (List.mem_assoc victim_name a.sk_q);
                    check
                      (Printf.sprintf "%s[%d]: quarantine event logged" name
                         round)
                      (contains_sub a.sk_ev ("Q" ^ victim_name));
                    check
                      (Printf.sprintf "%s[%d]: flap fault recorded" name
                         round)
                      (R.Report.count_class a.sk_report R.Fault.Cflap >= 1)
                  end
                  else begin
                    check
                      (Printf.sprintf
                         "%s[%d]: victim respawned from its journal" name
                         round)
                      (contains_sub a.sk_ev ("R" ^ victim_name));
                    check
                      (Printf.sprintf
                         "%s[%d]: respawned victim runs a later epoch" name
                         round)
                      (a.sk_epoch >= 1);
                    check
                      (Printf.sprintf
                         "%s[%d]: nothing quarantined in a respawn round"
                         name round)
                      (a.sk_q = []);
                    match a.sk_recovery with
                    | Some d ->
                        info
                          "round %d: victim recovered in %d decision(s) \
                           (detect -> respawned)"
                          round d
                    | None ->
                        violation
                          "%s[%d]: no crash-to-respawn pair in the event log"
                          name round
                  end;
                  if stall_round then begin
                    check
                      (Printf.sprintf "%s[%d]: probe losses recorded" name
                         round)
                      (R.Report.count_class a.sk_report R.Fault.Cprobe >= 1);
                    check
                      (Printf.sprintf "%s[%d]: stalled shard classified"
                         name round)
                      (contains_sub a.sk_ev ("S" ^ stall_name));
                    check
                      (Printf.sprintf
                         "%s[%d]: hedged decisions in the log" name round)
                      (String.contains a.sk_d 'H')
                  end;
                  if cache_round then begin
                    check
                      (Printf.sprintf "%s[%d]: repeats answered from cache"
                         name round)
                      (String.contains a.sk_d 'C');
                    check
                      (Printf.sprintf
                         "%s[%d]: corruption recorded as a cache fault" name
                         round)
                      (R.Report.count_class a.sk_report R.Fault.Ccache >= 1);
                    match a.sk_extra with
                    | [ (vf, rr) ] ->
                        check
                          (Printf.sprintf
                             "%s[%d]: regenerated reply bit-identical to \
                              the reference"
                             name round)
                          (Some (S.Proto.encode_reply rr)
                          = Option.map S.Proto.encode_reply
                              (List.assoc_opt vf ref_replies))
                    | _ -> ()
                  end;
                  let got = render (merge_funcs a.sk_funcs) in
                  if got <> expect then
                    violation
                      "%s[%d]: merged outputs differ from the unkilled \
                       single-shard reference"
                      name round
                  else
                    info
                      "round %d: merged outputs bit-identical to the \
                       reference (decisions %s)"
                      round a.sk_d;
                  if flap_round then begin
                    match run_one ~tag:"shed" ~policy:Sh.Router.Shed with
                    | None -> ()
                    | Some sh ->
                        let all = all_replies sh in
                        check
                          (Printf.sprintf
                             "%s[%d]: no raw failure escapes under shed"
                             name round)
                          (List.for_all
                             (function
                               | S.Proto.Done _ | S.Proto.Rejected _ -> true
                               | S.Proto.Failed _ -> false)
                             all);
                        check
                          (Printf.sprintf
                             "%s[%d]: victim quarantined under shed" name
                             round)
                          (List.mem_assoc victim_name sh.sk_q);
                        let qrej =
                          List.filter
                            (function
                              | S.Proto.Rejected
                                  (S.Proto.Shard_quarantined { shard; _ }) ->
                                  shard = victim_name
                              | _ -> false)
                            all
                        in
                        check
                          (Printf.sprintf
                             "%s[%d]: quarantine matched by typed \
                              Shard_quarantined rejections"
                             name round)
                          (qrej <> [] && String.contains sh.sk_d 'Q');
                        info
                          "round %d: %d typed quarantine rejection(s) under \
                           shed"
                          round (List.length qrej)
                  end
              | _ -> ())
            done
      end
    end;

    (* ---- streaming connection chaos: cancel-storm, slow-loris shed,
       mid-stream kill/resume against the event-loop serve core. Every
       scenario runs twice; the engine decision log must be byte-equal
       across the twin runs, no request may be lost or double-decoded,
       and no raw exception may escape the event loop. ---- *)
    if stream_chaos || (kill_at = None && (not shard_only) && not chaos_soak)
    then begin
      let module Ev = S.Evloop in
      let stream_fnames =
        List.map
          (fun (b : Vega.Pipeline.bundle) ->
            b.Vega.Pipeline.spec.Vega_corpus.Spec.fname)
          t.Vega.Pipeline.prep.Vega.Pipeline.bundles
      in
      let scfg =
        {
          S.Server.default_config with
          S.Server.domains = 1;
          queue_cap = 256;
          client_burst = 1.0e9;
          client_rate = 0.0;
        }
      in
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
      let mkreq f =
        {
          S.Proto.rq_client = "chaos";
          rq_target = target;
          rq_fname = f;
          rq_deadline_ms = None;
        }
      in
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
         any exception out of the engine is itself a violation *)
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
            check
              (Printf.sprintf "%s: decision log byte-equal across twin runs"
                 name)
              (log1 = log2);
            check
              (Printf.sprintf "%s: twin runs reach the same finals" name)
              (List.map (fun r -> Option.map S.Proto.encode_reply r.cr_final)
                 res1
              = List.map (fun r -> Option.map S.Proto.encode_reply r.cr_final)
                  res2);
            check
              (Printf.sprintf "%s: twin runs agree on engine stats" name)
              (st1 = st2);
            verify res1 st1 extra1
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
        (fun res st h ->
          let name = "stream cancel-storm" in
          check
            (Printf.sprintf "%s: every stream answered exactly once" name)
            (List.for_all (fun r -> r.cr_final <> None) res);
          check
            (Printf.sprintf "%s: unscheduled streams all complete" name)
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
          check
            (Printf.sprintf "%s: cancellations landed" name)
            (st.Ev.ev_cancelled >= 1);
          check
            (Printf.sprintf "%s: every slot freed" name)
            (h.S.Health.h_busy = 0);
          check
            (Printf.sprintf "%s: journal lag settled to zero" name)
            (h.S.Health.h_journal_lag = 0);
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
                {
                  cc_fname = None;
                  cc_budget = max_int;
                  cc_cancel_at = None;
                  cc_kill_at = None;
                  cc_eof_at = None;
                };
              ]
          in
          (srv, ecfg, clients, fun srv _ -> S.Server.health srv))
        (fun res st h ->
          let name = "stream slow-loris shed" in
          check
            (Printf.sprintf "%s: every peer answered exactly once" name)
            (List.for_all (fun r -> r.cr_final <> None) res);
          check
            (Printf.sprintf "%s: every verdict typed Done/Slow_reader" name)
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
          check
            (Printf.sprintf "%s: at least one slow reader shed" name)
            (st.Ev.ev_shed_slow >= 1);
          check
            (Printf.sprintf "%s: the silent peer idle-shed" name)
            (st.Ev.ev_idle_closed = 1);
          check
            (Printf.sprintf "%s: every slot freed" name)
            (h.S.Health.h_busy = 0);
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
                    S.Server.request rsrv
                      {
                        S.Proto.rq_client = "chaos";
                        rq_target = target;
                        rq_fname = f;
                        rq_deadline_ms = None;
                      })
                  stream_fnames
              in
              let got = render (S.Server.functions rsrv) in
              S.Server.drain rsrv;
              (h, restored, replies, got, !calls) ))
        (fun res st (h, restored, replies, got, rcalls) ->
          let name = "stream mid-stream kill/resume" in
          (* an interruption scheduled past a short function's end is a
             no-op, so the engine's typed-cancel count is the truth;
             the twin-run equality checks already pin it to the seed *)
          let interrupted = st.Ev.ev_cancelled in
          check
            (Printf.sprintf "%s: interruptions landed" name)
            (interrupted >= 1 && interrupted <= List.length eof_plan);
          check
            (Printf.sprintf "%s: every slot freed before drain" name)
            (h.S.Health.h_busy = 0);
          check
            (Printf.sprintf "%s: journal lag settled to zero" name)
            (h.S.Health.h_journal_lag = 0);
          check
            (Printf.sprintf "%s: sealed functions restored on resume" name)
            (restored = List.length stream_fnames - interrupted);
          let resumed_replies, regenerated =
            List.partition
              (function S.Proto.Done d -> d.r_resumed | _ -> false)
              replies
          in
          check
            (Printf.sprintf "%s: every reply Done after resume" name)
            (List.for_all
               (function S.Proto.Done _ -> true | _ -> false)
               replies);
          check
            (Printf.sprintf
               "%s: restored functions answer without re-decoding, \
                interrupted ones regenerate"
               name)
            (List.length resumed_replies = restored
            && List.length regenerated = interrupted);
          check
            (Printf.sprintf "%s: interrupted functions decoded on resume"
               name)
            (rcalls >= 1);
          if got <> expect_all then
            violation
              "%s: resumed output differs from the clean reference" name
          else
            info
              "%d stream(s), %d interrupted, %d restored, output \
               bit-identical after resume"
              (List.length res) interrupted restored)
    end;

    if json then
      print_endline
        (json_obj
           [
             ("event", json_str "summary");
             ("violations", string_of_int !violations);
             ("ok", if !violations = 0 then "true" else "false");
           ]);
    if !violations = 0 then begin
      if not json then
        Printf.printf "faultcheck: OK — zero invariant violations\n";
      exit 0
    end
    else begin
      if not json then
        Printf.printf "faultcheck: %d invariant violation(s)\n" !violations;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "faultcheck"
       ~doc:
         "Run the deterministic fault-injection matrix (decoder, corpus, \
          description files, interpreter and simulator fuel, circuit \
          breaker, kill-and-resume, sharded serving) against one target; \
          non-zero exit on any invariant violation")
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
  let queue_cap_arg =
    Arg.(
      value
      & opt int S.Server.default_config.S.Server.queue_cap
      & info [ "queue-cap" ] ~docv:"K"
          ~doc:
            "Admission queue bound: the $(docv)+1'th concurrent request is \
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
            "Serve durably: write-ahead journal + checkpoints under $(docv); \
             drain checkpoints in-flight work so a restart with \
             $(b,--resume) loses nothing.")
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
  let run socket target model domains queue_cap deadline_ms run_dir resume
      kill_at batch_slots =
    let t, decoder = mk_pipeline ~model in
    let decoder =
      if model && batch_slots > 1 then
        match Vega.Pipeline.new_batcher t ~slots:batch_slots with
        | Some b -> Vega.Pipeline.model_decoder ~batch:b t
        | None -> decoder
      else decoder
    in
    let config =
      {
        S.Server.default_config with
        S.Server.domains;
        queue_cap;
        deadline_ms;
      }
    in
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
            S.Evloop.ev_slots = max 1 domains;
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
              (S.Health.summary (S.Server.health server))
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
         "Run the resilient serving daemon on a poll event loop: bounded \
          admission with explicit load-shedding, per-request deadlines, \
          per-client retry budgets, framed streaming with cancellation, \
          health snapshots, graceful checkpointing drain that lets \
          in-flight requests finish. $(b,--domains) sets the concurrent \
          decode slots, stepped in parallel on one domain each, and \
          $(b,--queue-cap) bounds the requests waiting for one")
    Term.(
      const run $ socket_arg $ target_arg $ model_flag $ domains_arg
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
            "Gracefully drain the daemon: stop admitting, finish or \
             checkpoint in-flight requests, exit.")
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
      let req =
        {
          S.Proto.rq_client = client;
          rq_target = target;
          rq_fname = fname;
          rq_deadline_ms = deadline_ms;
        }
      in
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
  let queue_cap_arg =
    Arg.(
      value
      & opt int S.Server.default_config.S.Server.queue_cap
      & info [ "queue-cap" ] ~docv:"K"
          ~doc:"Per-shard admission queue bound.")
  in
  let run socket target model domains shards policy cache_dir run_dir queue_cap
      =
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
    let fingerprint = Vega.Pipeline.fingerprint t ~target in
    let desc_hash =
      Sh.Cache.desc_hash_of_vfs
        t.Vega.Pipeline.prep.Vega.Pipeline.corpus.Vega_corpus.Corpus.vfs
        ~target
    in
    let config =
      { S.Server.default_config with S.Server.domains; queue_cap }
    in
    let servers =
      List.init shards (fun i ->
          let run_dir = Option.map (fun d -> Sh.Router.shard_run_dir d i) run_dir in
          match S.Server.create ~config ?run_dir t ~target ~decoder with
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
          worker shards with per-shard circuit breakers, deterministic \
          reroute-or-shed degrade, and an optional content-addressed \
          result cache; speaks the same socket protocol as $(b,serve), on \
          the same event loop (default slots and wait cap; $(b,--domains) \
          and $(b,--queue-cap) size each shard), relaying streams live \
          from the owning shard")
    Term.(
      const run $ socket_arg $ target_arg $ model_flag $ domains_arg
      $ shards_arg $ policy_arg $ cache_dir_arg $ run_dir_arg $ queue_cap_arg)

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
  let run target model shards seed passes kill run_dir cache_dir json domains =
    if shards < 1 then begin
      Printf.eprintf "vega-fleet: need at least one shard\n";
      exit 1
    end;
    let t, decoder = mk_pipeline ~model in
    let fingerprint = Vega.Pipeline.fingerprint t ~target in
    let desc_hash =
      Sh.Cache.desc_hash_of_vfs
        t.Vega.Pipeline.prep.Vega.Pipeline.corpus.Vega_corpus.Corpus.vfs
        ~target
    in
    let fnames =
      List.map
        (fun (b : Vega.Pipeline.bundle) ->
          b.Vega.Pipeline.spec.Vega_corpus.Spec.fname)
        t.Vega.Pipeline.prep.Vega.Pipeline.bundles
    in
    let nf = List.length fnames in
    if nf = 0 then begin
      Printf.eprintf "vega-fleet: the corpus provides no functions\n";
      exit 1
    end;
    let scfg =
      {
        S.Server.default_config with
        S.Server.domains;
        queue_cap = 128;
        client_burst = 100000.0;
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
            let req =
              {
                S.Proto.rq_client = "fleet";
                rq_target = target;
                rq_fname = fname;
                rq_deadline_ms = None;
              }
            in
            match F.request fleet req with
            | S.Proto.Done _ -> incr ok
            | S.Proto.Rejected _ -> incr rejected
            | S.Proto.Failed _ -> incr failed)
          order;
        let class_name = function
          | F.Healthy -> "healthy"
          | F.Crashed -> "crashed"
          | F.Stalled -> "stalled"
          | F.Flapping -> "flapping"
        in
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
                     ("class", json_str (class_name (F.shard_class fleet s.Sh.Router.ss_name)));
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
                (class_name (F.shard_class fleet s.Sh.Router.ss_name))
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
          requests around stalled shards; optionally arm a simulated crash \
          with $(b,--kill) and watch the fleet heal")
    Term.(
      const run $ target_arg $ model_flag $ shards_arg $ seed_arg
      $ passes_arg $ kill_arg $ run_dir_arg $ cache_dir_arg $ json_flag
      $ domains_arg)

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
