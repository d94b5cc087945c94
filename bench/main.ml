(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 4) against this reproduction, plus the ablations
   called out in DESIGN.md. Throughput and latency of the serving stack
   are perfbench's (perfbench/README.md).

   Usage:
     bench/main.exe            full run (trains CodeBE; ~15-30 min)
     bench/main.exe --quick    retrieval decoder, no training (~2 min)
     bench/main.exe fig8       one section only (setup is built lazily,
                               so e.g. `fig6` runs in seconds)

   Sections: corpus fig6 fig7 fig8 fig9 table2 table3 table4 fig10
   robustness model_ablation rnn_ablation split_ablation. Any other
   argument is rejected before setup, with exit status 2. *)

module V = Vega
module E = Vega_eval
module M = Vega_target.Module_id
module T = Vega_util.Texttab

let pct = T.fmt_pct
let f2 = T.fmt_f ~digits:2

let heading title =
  Printf.printf "\n============================================================\n%s\n============================================================\n"
    title

(* ------------------------------------------------------------------ *)
(* Shared setup                                                        *)

type setup = {
  pipeline : V.Pipeline.t;
  decoder : V.Generate.decoder;
  evals : (string * E.Metrics.target_eval) list;  (** held-out targets *)
  forkflows : (string * E.Metrics.target_eval) list;
  em : float;
  train_seconds : float;
  prep_seconds : float;
}

let build_setup ~quick () =
  let (prep : V.Pipeline.prepared), prep_seconds =
    Vega_util.Timer.time (fun () -> V.Pipeline.prepare ())
  in
  let cfg =
    if quick then
      {
        V.Pipeline.default_config with
        train_cfg = { V.Codebe.tiny_train_config with epochs = 0 };
      }
    else V.Pipeline.default_config
  in
  let t, train_seconds = Vega_util.Timer.time (fun () -> V.Pipeline.train cfg prep) in
  let decoder =
    if quick then V.Pipeline.retrieval_decoder t else V.Pipeline.model_decoder t
  in
  let em = if quick then 0.0 else V.Pipeline.verification_exact_match t in
  let evals =
    List.map
      (fun (p : Vega_target.Profile.t) ->
        Printf.printf "evaluating %s (pass@1 over the regression suite)...\n%!"
          p.name;
        (p.name, E.Metrics.evaluate_target t ~decoder p ()))
      Vega_target.Registry.held_out
  in
  let forkflows =
    List.map
      (fun (p : Vega_target.Profile.t) ->
        Printf.printf "evaluating ForkFlow for %s...\n%!" p.name;
        (p.name, E.Metrics.evaluate_forkflow t.V.Pipeline.prep p ()))
      Vega_target.Registry.held_out
  in
  { pipeline = t; decoder; evals; forkflows; em; train_seconds; prep_seconds }

(* ------------------------------------------------------------------ *)
(* Sections                                                            *)

let section_corpus (s : setup) =
  heading "Corpus and training setup (Sec. 4.1.2 analogue)";
  let g, f, st = Vega_corpus.Corpus.stats s.pipeline.V.Pipeline.prep.corpus in
  Printf.printf
    "Backends in B: %d training + 3 held-out (paper: 98 + 3)\n\
     Function groups: %d (paper: 825; scaled corpus, see DESIGN.md)\n\
     Training functions: %d   statements: %d (paper: 7,902 / 107,718)\n\
     CodeBE training pairs: %d  verification pairs: %d\n\
     Code-Feature Mapping time: %.1f s (paper: ~1,200 s)\n\
     Model Creation time: %.1f s (paper: ~72 h on 8xV100)\n"
    (List.length Vega_target.Registry.training)
    g f st
    (List.length s.pipeline.V.Pipeline.train_pairs)
    (List.length s.pipeline.V.Pipeline.verify_pairs)
    s.prep_seconds s.train_seconds;
  if s.em > 0.0 then
    Printf.printf "Verification-set Exact Match: %s (paper: 99.03%%)\n" (pct s.em)

let section_fig6 () =
  heading "Fig. 6 — Target processors and function modules";
  let tab = T.create ~headers:[ "Target"; "Class"; "ISA axes"; "Modules" ] in
  List.iter
    (fun ((p : Vega_target.Profile.t), cls) ->
      let f = p.features in
      let axes =
        String.concat ","
          (List.filter_map Fun.id
             [
               (if f.Vega_target.Profile.has_simd then Some "SIMD" else None);
               (if f.has_hwloop then Some "HWLoop" else None);
               (if f.has_variant_kinds then Some "VK" else None);
               (if f.has_relaxation then Some "Relax" else None);
               (if f.dense_imm then Some "DenseImm" else None);
             ])
      in
      let modules =
        String.concat ""
          (List.map
             (fun m ->
               if m = M.DIS && not f.has_disassembler then "-"
               else String.make 1 (M.name m).[0])
             M.all)
      in
      T.add_row tab [ p.name; cls; (if axes = "" then "base" else axes); modules ])
    [
      (Vega_target.Registry.riscv, "GPP");
      (Vega_target.Registry.ri5cy, "ULP");
      (Vega_target.Registry.xcore, "IoT");
    ];
  print_string (T.render tab)

let section_fig7 (s : setup) =
  heading "Fig. 7 — Inference time per function module (seconds)";
  let tab = T.create ~headers:("Target" :: List.map M.name M.all @ [ "Total" ]) in
  List.iter
    (fun (name, (te : E.Metrics.target_eval)) ->
      T.add_row tab
        (name
        :: List.map
             (fun m ->
               match List.assoc_opt m te.te_module_seconds with
               | Some t -> f2 t
               | None -> "-")
             M.all
        @ [ f2 te.te_gen_seconds ]))
    s.evals;
  print_string (T.render tab);
  Printf.printf
    "(paper: 1,383 s / 1,664 s / 424 s per backend; ours is smaller-scale\n\
     but the ordering RI5CY > RISCV > XCore should hold)\n"

let section_fig8 (s : setup) =
  heading "Fig. 8 — Function accuracy per module (pass@1)";
  let tab =
    T.create
      ~headers:
        ("Target" :: List.map M.name M.all
        @ [ "ALL"; "conf~1.00"; "multi-src" ])
  in
  List.iter
    (fun (name, (te : E.Metrics.target_eval)) ->
      let by = E.Metrics.acc_by_module te in
      T.add_row tab
        (name
        :: List.map
             (fun m ->
               match List.assoc_opt m by with Some a -> pct a | None -> "-")
             M.all
        @ [
            pct (E.Metrics.fn_accuracy te.te_fns);
            pct (E.Metrics.conf1_share te.te_fns);
            pct (E.Metrics.multi_source_share te.te_fns);
          ]))
    s.evals;
  print_string (T.render tab);
  Printf.printf "(paper ALL: RISC-V 71.5%%, RI5CY 73.2%%, xCORE 62.2%%)\n";
  let tab2 = T.create ~headers:[ "Target"; "ForkFlow ALL" ] in
  List.iter
    (fun (name, (te : E.Metrics.target_eval)) ->
      T.add_row tab2 [ name; pct (E.Metrics.fn_accuracy te.te_fns) ])
    s.forkflows;
  print_string (T.render tab2);
  Printf.printf
    "(paper ForkFlow: 7.9%% / 6.7%% / 2.1%%; our corpus is far more uniform\n\
     than 101 real LLVM backends, so ForkFlow lands higher — the ordering\n\
     VEGA >> ForkFlow is the preserved claim, see EXPERIMENTS.md)\n"

let section_fig9 (s : setup) =
  heading "Fig. 9 — Statement-level accuracy, VEGA vs ForkFlow";
  let tab =
    T.create ~headers:[ "Target"; "Module"; "VEGA"; "ForkFlow" ]
  in
  List.iter2
    (fun (name, (ve : E.Metrics.target_eval)) (_, (ff : E.Metrics.target_eval)) ->
      List.iter
        (fun m ->
          let vfns = List.filter (fun f -> f.E.Metrics.fe_module = m) ve.te_fns in
          let ffns = List.filter (fun f -> f.E.Metrics.fe_module = m) ff.te_fns in
          if vfns <> [] then
            T.add_row tab
              [
                name;
                M.name m;
                pct (E.Metrics.stmt_accuracy vfns);
                pct (E.Metrics.stmt_accuracy ffns);
              ])
        M.all;
      T.add_row tab
        [
          name;
          "ALL";
          pct (E.Metrics.stmt_accuracy ve.te_fns);
          pct (E.Metrics.stmt_accuracy ff.te_fns);
        ];
      T.add_rule tab)
    s.evals s.forkflows;
  print_string (T.render tab);
  Printf.printf "(paper VEGA ALL: 55.0%% / 58.5%% / 38.5%%)\n"

let section_table2 (s : setup) =
  heading "Table 2 — Sources of inaccurate statements";
  let tab = T.create ~headers:[ "Target"; "Err-V"; "Err-CS"; "Err-Def" ] in
  List.iter
    (fun (name, (te : E.Metrics.target_eval)) ->
      let v, cs, d = E.Metrics.err_rates te.te_fns in
      T.add_row tab [ name; pct v; pct cs; pct d ])
    s.evals;
  print_string (T.render tab);
  Printf.printf "(paper RISC-V: Err-V 3.9%%, Err-CS 11.6%%, Err-Def 23.9%%)\n";
  heading "Static analysis — pass@1 failures flagged before execution";
  let tab =
    T.create
      ~headers:
        [
          "Target"; "Flagged"; "Parse"; "Symbol"; "Dataflow"; "Interface";
          "Sem"; "FalseAlarm"; "ConfFlag/Clean"; "TaxAgree";
        ]
  in
  List.iter
    (fun (name, (te : E.Metrics.target_eval)) ->
      let by_cls = E.Metrics.static_flag_by_class te.te_fns in
      let cls c = pct (List.assoc c by_cls) in
      let cf, cc = E.Metrics.confidence_by_flag te.te_fns in
      T.add_row tab
        [
          name;
          pct (E.Metrics.static_flag_rate te.te_fns);
          cls Vega_analysis.Diagnostic.Parse;
          cls Vega_analysis.Diagnostic.Symbol;
          cls Vega_analysis.Diagnostic.Dataflow;
          cls Vega_analysis.Diagnostic.Interface;
          cls Vega_analysis.Diagnostic.Sem;
          pct (E.Metrics.static_false_alarm_rate te.te_fns);
          Printf.sprintf "%.2f/%.2f" cf cc;
          pct (E.Metrics.taxonomy_agreement te.te_fns);
        ])
    s.evals;
  print_string (T.render tab);
  heading "Semantic verdicts — the absint verifier on generated functions";
  let tab =
    T.create ~headers:[ "Target"; "SemErrors"; "SemFlagged"; "SemFalseAlarm" ]
  in
  List.iter
    (fun (name, (te : E.Metrics.target_eval)) ->
      T.add_row tab
        [
          name;
          string_of_int (E.Metrics.sem_error_count te.te_fns);
          pct (E.Metrics.sem_flag_rate te.te_fns);
          pct (E.Metrics.sem_false_alarm_rate te.te_fns);
        ])
    s.evals;
  print_string (T.render tab)

let section_table3 (s : setup) =
  heading "Table 3 — Statements accurate vs needing manual correction";
  let tab = T.create ~headers:[ "Target"; "Module"; "Accurate"; "ManualEffort" ] in
  List.iter
    (fun (name, (te : E.Metrics.target_eval)) ->
      let acc_total = ref 0 and man_total = ref 0 in
      List.iter
        (fun (m, fns) ->
          let acc = List.fold_left (fun a f -> a + f.E.Metrics.fe_acc_stmts) 0 fns in
          let man =
            List.fold_left
              (fun a (f : E.Metrics.fn_eval) ->
                a + max 0 (f.fe_ref_stmts - f.fe_acc_stmts))
              0 fns
          in
          acc_total := !acc_total + acc;
          man_total := !man_total + man;
          T.add_row tab [ name; M.name m; string_of_int acc; string_of_int man ])
        (E.Metrics.by_module te);
      T.add_row tab
        [ name; "ALL"; string_of_int !acc_total; string_of_int !man_total ];
      T.add_rule tab)
    s.evals;
  print_string (T.render tab);
  Printf.printf "(paper RISC-V ALL: 5,524 accurate / 7,223 manual)\n"

let section_table4 (s : setup) =
  heading "Table 4 — Manual-correction effort model (simulated; see DESIGN.md)";
  match List.assoc_opt "RISCV" s.evals with
  | None -> ()
  | Some te ->
      let tab =
        T.create ~headers:[ "Module"; "Developer A (h)"; "Developer B (h)" ]
      in
      let ha = E.Effort.hours E.Effort.developer_a te in
      let hb = E.Effort.hours E.Effort.developer_b te in
      List.iter
        (fun m ->
          match (List.assoc_opt m ha, List.assoc_opt m hb) with
          | Some a, Some b -> T.add_row tab [ M.name m; f2 a; f2 b ]
          | _ -> ())
        M.all;
      T.add_row tab
        [
          "ALL";
          f2 (E.Effort.total_hours E.Effort.developer_a te);
          f2 (E.Effort.total_hours E.Effort.developer_b te);
        ];
      print_string (T.render tab);
      Printf.printf "(paper: 42.54 h / 48.12 h for the full-scale backend)\n"

let corrected_sources (s : setup) (p : Vega_target.Profile.t) =
  let te = List.assoc p.Vega_target.Profile.name s.evals in
  let generated =
    List.filter_map
      (fun (b : V.Pipeline.bundle) ->
        match
          V.Pipeline.generate_function s.pipeline
            ~target:p.Vega_target.Profile.name ~decoder:s.decoder
            ~fname:b.spec.Vega_corpus.Spec.fname
        with
        | Some gf -> (
            match
              Vega_srclang.Parser.parse_function_opt (V.Generate.source_of gf)
            with
            | Ok f -> Some (b.spec.Vega_corpus.Spec.fname, f)
            | Error _ -> None)
        | None -> None)
      s.pipeline.V.Pipeline.prep.bundles
  in
  E.Perf.corrected_sources p te generated

let section_fig10 (s : setup) =
  heading "Fig. 10 — Benchmark speedups (-O3 over -O0), VEGA-built vs base";
  let vfs = s.pipeline.V.Pipeline.prep.corpus.Vega_corpus.Corpus.vfs in
  List.iter
    (fun (p : Vega_target.Profile.t) ->
      let sources = corrected_sources s p in
      let points = E.Perf.run vfs p ~vega_sources:sources () in
      let tab =
        T.create
          ~headers:[ "Benchmark"; p.name ^ " base"; p.name ^ " VEGA" ]
      in
      List.iter
        (fun (bp : E.Perf.bench_point) ->
          T.add_row tab
            [ bp.bp_case; f2 bp.bp_base_speedup ^ "x"; f2 bp.bp_vega_speedup ^ "x" ])
        points;
      print_string (T.render tab))
    Vega_target.Registry.held_out;
  Printf.printf
    "(the corrected VEGA compiler must track the base compiler, Sec. 4.3)\n"

let section_robustness (s : setup) =
  heading "Robustness (Sec. 4.3) — corrected compilers pass all regressions";
  let vfs = s.pipeline.V.Pipeline.prep.corpus.Vega_corpus.Corpus.vfs in
  List.iter
    (fun (p : Vega_target.Profile.t) ->
      let sources = corrected_sources s p in
      let ok = E.Perf.robustness vfs p ~vega_sources:sources () in
      Printf.printf "VEGA^%s: %s\n" p.name (if ok then "PASS" else "FAIL"))
    Vega_target.Registry.held_out


let section_split_ablation (s : setup) ~quick =
  heading "Split ablation (Sec. 4.1.2) — function-group vs backend split";
  if quick then
    print_endline "(skipped in --quick mode: requires model training)"
  else begin
    let prep = s.pipeline.V.Pipeline.prep in
    let cfg =
      {
        V.Pipeline.default_config with
        split = V.Pipeline.Backend_split;
        train_cfg = { V.Codebe.default_train_config with epochs = 6 };
      }
    in
    let t2 = V.Pipeline.train cfg prep in
    let te2 =
      E.Metrics.evaluate_target t2 ~decoder:(V.Pipeline.model_decoder t2)
        Vega_target.Registry.riscv ()
    in
    let base = List.assoc "RISCV" s.evals in
    Printf.printf
      "RISCV accuracy, function-group split: %s\n\
       RISCV accuracy, backend-based split:  %s\n\
       (paper: backend split costs 26.2%% accuracy on RISC-V)\n"
      (pct (E.Metrics.fn_accuracy base.te_fns))
      (pct (E.Metrics.fn_accuracy te2.E.Metrics.te_fns))
  end

let section_model_ablation (s : setup) =
  heading "Model ablation — CodeBE vs retrieval (\"statistical\") decoder";
  let t = s.pipeline in
  let tab = T.create ~headers:[ "Target"; "CodeBE"; "Retrieval" ] in
  List.iter
    (fun (p : Vega_target.Profile.t) ->
      let retr =
        E.Metrics.evaluate_target t ~decoder:(V.Pipeline.retrieval_decoder t) p ()
      in
      let main = List.assoc p.Vega_target.Profile.name s.evals in
      T.add_row tab
        [
          p.name;
          pct (E.Metrics.fn_accuracy main.te_fns);
          pct (E.Metrics.fn_accuracy retr.E.Metrics.te_fns);
        ])
    Vega_target.Registry.held_out;
  print_string (T.render tab);
  Printf.printf
    "(Sec. 2.4: learned models beat statistical value selection)\n"

let section_rnn_ablation (s : setup) ~quick =
  heading "Architecture ablation - CodeBE (transformer) vs RNN (Sec. 4.1.2)";
  if quick then print_endline "(skipped in --quick mode: requires training)"
  else begin
    (* a GRU seq2seq trained on the same pairs, matched parameter budget *)
    let cfg = { V.Codebe.default_train_config with epochs = 8 } in
    let rnn = V.Codebe.train ~arch:V.Codebe.Rnn cfg s.pipeline.V.Pipeline.train_pairs in
    let em_rnn =
      V.Codebe.exact_match rnn
        (List.filteri (fun i _ -> i < 200) s.pipeline.V.Pipeline.verify_pairs)
    in
    let em_trans =
      V.Codebe.exact_match s.pipeline.V.Pipeline.codebe
        (List.filteri (fun i _ -> i < 200) s.pipeline.V.Pipeline.verify_pairs)
    in
    Printf.printf
      "verification Exact Match: transformer %s, RNN %s\n\
       (paper: UniXcoder-based VEGA beats RNN-based by 35.3-77.7%% in\n\
       function accuracy)\n"
      (pct em_trans) (pct em_rnn)
  end

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  (* setup (prepare + train + evaluate) is expensive; sections that do
     not touch the pipeline — e.g. `fig6` — must not pay for it *)
  let setup = lazy (build_setup ~quick ()) in
  let s () = Lazy.force setup in
  let all =
    [
      ("corpus", fun () -> section_corpus (s ()));
      ("fig6", section_fig6);
      ("fig7", fun () -> section_fig7 (s ()));
      ("fig8", fun () -> section_fig8 (s ()));
      ("fig9", fun () -> section_fig9 (s ()));
      ("table2", fun () -> section_table2 (s ()));
      ("table3", fun () -> section_table3 (s ()));
      ("table4", fun () -> section_table4 (s ()));
      ("fig10", fun () -> section_fig10 (s ()));
      ("robustness", fun () -> section_robustness (s ()));
      ("model_ablation", fun () -> section_model_ablation (s ()));
      ("rnn_ablation", fun () -> section_rnn_ablation (s ()) ~quick);
      ("split_ablation", fun () -> section_split_ablation (s ()) ~quick);
    ]
  in
  let sections = List.filter (fun a -> a <> "--quick") args in
  (match List.filter (fun a -> not (List.mem_assoc a all)) sections with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown argument(s): %s\nsections: %s (and --quick)\n"
        (String.concat " " unknown)
        (String.concat " " (List.map fst all));
      exit 2);
  Printf.printf "VEGA reproduction benchmark harness (%s mode)\n%!"
    (if quick then "quick/retrieval" else "full/CodeBE");
  List.iter
    (fun (name, run) -> if sections = [] || List.mem name sections then run ())
    all;
  print_newline ()
