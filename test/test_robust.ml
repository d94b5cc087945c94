(* Tests for the fault-tolerant generation pipeline: the fault taxonomy,
   the degradation ladder, stage isolation, the seeded injection harness,
   and the end-to-end invariants (a faulty decoder never aborts backend
   generation; degraded confidence never exceeds its rung's cap; every
   injected fault appears in the run report). *)

module V = Vega
module R = Vega_robust

let sample_faults =
  [
    R.Fault.Decoder_failure { fname = "f"; stage = "primary"; message = "boom" };
    R.Fault.Nan_score { fname = "f"; detail = "nan prob" };
    R.Fault.Corpus_corruption { group = "g"; detail = "bad impl" };
    R.Fault.Descfile_corruption { path = "p.td"; detail = "binary junk" };
    R.Fault.Interp_fuel_exhausted { fuel = 7 };
    R.Fault.Sim_fuel_exhausted { fuel = 9 };
    R.Fault.Sim_trap { message = "bad register" };
    R.Fault.Bounds_error { what = "w"; index = 3; length = 2 };
    R.Fault.Stage_failure { stage = "s"; message = "m" };
    R.Fault.Deadline_exceeded { fname = "f"; budget_ms = 30_000 };
    R.Fault.Breaker_open { fname = "f"; failures = 5 };
    R.Fault.Record_oversize
      { where = "journal"; bytes = 9_000_000; limit = 1 lsl 20 };
    R.Fault.Cache_corruption { key = "abc123"; detail = "checksum mismatch" };
    R.Fault.Shard_failure { shard = "shard-1"; detail = "connection refused" };
    R.Fault.Shard_stalled { shard = "shard-1"; decisions = 12 };
    R.Fault.Shard_flapping { shard = "shard-2"; crashes = 3; window = 64 };
    R.Fault.Probe_loss { shard = "shard-0"; detail = "probe dropped" };
    R.Fault.Tensor_fault { op = "matmul"; detail = "shape mismatch 2x3 * 4x5" };
    R.Fault.Cancelled { fname = "f"; at_stmt = 3 };
    R.Fault.Peer_gone { where = "stream-write" };
  ]

(* ---------------- taxonomy ---------------- *)

let test_taxonomy () =
  (* every fault maps into the class list, one class per constructor *)
  let classes = List.map R.Fault.cls_of sample_faults in
  Alcotest.(check int) "one class per constructor"
    (List.length R.Fault.all_classes)
    (List.length (List.sort_uniq compare classes));
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "class %s reachable" (R.Fault.cls_name c))
        true (List.mem c classes))
    R.Fault.all_classes;
  (* class names and printed forms are distinct and non-empty *)
  let names = List.map R.Fault.cls_name R.Fault.all_classes in
  Alcotest.(check int) "distinct class names"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun f ->
      Alcotest.(check bool) "to_string non-empty" true
        (String.length (R.Fault.to_string f) > 0))
    sample_faults

let test_degrade_ladder () =
  Alcotest.(check int) "five rungs" 5 (List.length R.Degrade.all);
  Alcotest.(check (float 0.0)) "primary uncapped" 1.0 (R.Degrade.cap R.Degrade.Primary);
  Alcotest.(check (float 0.0)) "omitted zero" 0.0 (R.Degrade.cap R.Degrade.Omitted);
  Alcotest.(check bool) "template default below accept threshold" true
    (R.Degrade.cap R.Degrade.Template_default < 0.5);
  (* caps monotonically non-increasing in rank, ranks are 0..4 in order *)
  ignore
    (List.fold_left
       (fun (prev_rank, prev_cap) l ->
         Alcotest.(check int) "rank increments" (prev_rank + 1) (R.Degrade.rank l);
         Alcotest.(check bool)
           (Printf.sprintf "cap non-increasing at %s" (R.Degrade.name l))
           true
           (R.Degrade.cap l <= prev_cap);
         (R.Degrade.rank l, R.Degrade.cap l))
       (-1, 2.0) R.Degrade.all)

let test_report () =
  let r = R.Report.create () in
  Alcotest.(check int) "empty" 0 (R.Report.total r);
  List.iter (R.Report.record r ~stage:"test") sample_faults;
  Alcotest.(check int) "all recorded" (List.length sample_faults) (R.Report.total r);
  Alcotest.(check int) "two decoder faults" 2
    (R.Report.count_class r R.Fault.Cdecoder);
  List.iter
    (fun (_, n) -> Alcotest.(check bool) "by_class non-zero only" true (n > 0))
    (R.Report.by_class r);
  (* Primary degradations are not degradations *)
  R.Report.record_degradation r ~fname:"f" ~col:0 ~line:0 ~inst:0 R.Degrade.Primary;
  Alcotest.(check int) "primary is a no-op" 0 (R.Report.degraded_count r);
  R.Report.record_degradation r ~fname:"f" ~col:0 ~line:1 ~inst:0 R.Degrade.Retry;
  R.Report.record_degradation r ~fname:"f" ~col:0 ~line:2 ~inst:0 R.Degrade.Omitted;
  Alcotest.(check int) "two degradations" 2 (R.Report.degraded_count r);
  Alcotest.(check int) "one retry" 1 (R.Report.count_level r R.Degrade.Retry);
  Alcotest.(check bool) "summary non-empty" true
    (String.length (R.Report.summary r) > 0)

(* ---------------- stage isolation ---------------- *)

let test_stage_classify () =
  let fault = R.Fault.Sim_trap { message = "x" } in
  Alcotest.(check bool) "fault passthrough" true
    (R.Stage.classify ~stage:"s" (R.Fault.Fault fault) = fault);
  (match R.Stage.classify ~stage:"s" (Vega_srclang.Interp.Fuel_exhausted 42) with
  | R.Fault.Interp_fuel_exhausted { fuel = 42 } -> ()
  | f -> Alcotest.failf "misclassified fuel exhaustion: %s" (R.Fault.to_string f));
  match R.Stage.classify ~stage:"s" (Failure "oops") with
  | R.Fault.Stage_failure { stage = "s"; _ } -> ()
  | f -> Alcotest.failf "misclassified failure: %s" (R.Fault.to_string f)

let test_stage_protect () =
  let r = R.Report.create () in
  (match R.Stage.protect ~report:r ~stage:"ok" (fun () -> 41 + 1) with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "expected Ok 42");
  Alcotest.(check int) "success records nothing" 0 (R.Report.total r);
  (match R.Stage.protect ~report:r ~stage:"boom" (fun () -> failwith "no") with
  | Error (R.Fault.Stage_failure _) -> ()
  | _ -> Alcotest.fail "expected Stage_failure");
  Alcotest.(check int) "failure recorded" 1 (R.Report.total r)

let test_stage_backtrace () =
  (* the fault record must carry the backtrace of the original raise
     site, not of the protect wrapper *)
  let was = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace was)
    (fun () ->
      let r = R.Report.create () in
      let deep () = failwith "deep failure" in
      (match R.Stage.protect ~report:r ~stage:"bt" (fun () -> deep ()) with
      | Error (R.Fault.Stage_failure _) -> ()
      | _ -> Alcotest.fail "expected Stage_failure");
      match R.Report.events r with
      | [ ev ] ->
          Alcotest.(check bool) "backtrace captured" true
            (String.length ev.R.Report.ev_backtrace > 0)
      | evs -> Alcotest.failf "expected one event, got %d" (List.length evs))

let qcheck_ladder_caps =
  (* caps are strictly decreasing down the ladder, and the template rung
     sits below the 0.5 accept threshold *)
  let pair =
    QCheck.Gen.(
      map2
        (fun a b -> (List.nth R.Degrade.all a, List.nth R.Degrade.all b))
        (int_range 0 (List.length R.Degrade.all - 1))
        (int_range 0 (List.length R.Degrade.all - 1)))
  in
  QCheck.Test.make ~name:"ladder caps strictly decrease" ~count:200
    (QCheck.make pair)
    (fun (l1, l2) ->
      R.Degrade.cap R.Degrade.Template_default < 0.5
      && (R.Degrade.rank l1 >= R.Degrade.rank l2
         || R.Degrade.cap l1 > R.Degrade.cap l2))

let test_bounds_nth () =
  Alcotest.(check int) "in range" 20 (R.Fault.nth ~what:"xs" [ 10; 20; 30 ] 1);
  match R.Fault.nth ~what:"xs" [ 10; 20; 30 ] 5 with
  | exception R.Fault.Fault (R.Fault.Bounds_error { what = "xs"; index = 5; length = 3 })
    ->
      ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected bounds fault"

(* ---------------- numeric hardening (satellite clamps) ---------------- *)

let test_mean_token_prob_nan () =
  let m = V.Codebe.mean_token_prob in
  Alcotest.(check (float 1e-9)) "nan entries dropped" 0.75
    (m [| 0.5; Float.nan; 1.0 |]);
  Alcotest.(check (float 0.0)) "all nan -> 0" 0.0 (m [| Float.nan; Float.nan |]);
  Alcotest.(check (float 0.0)) "empty -> 1" 1.0 (m [||]);
  Alcotest.(check (float 0.0)) "clamped above" 1.0 (m [| 3.0; 5.0 |]);
  Alcotest.(check bool) "always finite" true (Float.is_finite (m [| Float.infinity |]))

let test_confidence_sanitize () =
  Alcotest.(check (float 0.0)) "nan -> 0" 0.0 (V.Confidence.sanitize Float.nan);
  Alcotest.(check (float 0.0)) "inf -> 1" 1.0 (V.Confidence.sanitize Float.infinity);
  Alcotest.(check (float 0.0)) "neg clamped" 0.0 (V.Confidence.sanitize (-0.5));
  Alcotest.(check (float 0.0)) "identity inside" 0.3 (V.Confidence.sanitize 0.3)

(* ---------------- injection determinism ---------------- *)

let test_inject_determinism () =
  let fires seed every n =
    let t = R.Inject.create ~every ~seed R.Inject.Decoder_raise in
    List.init n (fun _ -> R.Inject.fire t)
  in
  Alcotest.(check (list bool)) "replayable" (fires 13 3 50) (fires 13 3 50);
  Alcotest.(check bool) "seed shifts the phase" true (fires 13 3 50 <> fires 14 3 50);
  let t = R.Inject.create ~every:3 ~seed:13 R.Inject.Decoder_raise in
  for _ = 1 to 30 do
    ignore (R.Inject.fire t)
  done;
  Alcotest.(check int) "opportunities counted" 30 (R.Inject.opportunities t);
  Alcotest.(check int) "every third fires" 10 (R.Inject.injected t)

(* ---------------- end-to-end invariants ---------------- *)

let corpus = lazy (Vega_corpus.Corpus.build ())

let pipeline =
  lazy
    (let prep = V.Pipeline.prepare ~corpus:(Lazy.force corpus) () in
     let cfg =
       {
         V.Pipeline.test_config with
         train_cfg = { V.Codebe.tiny_train_config with epochs = 0 };
       }
     in
     V.Pipeline.train cfg prep)

let stmt_key (gf : V.Generate.gen_func) (st : V.Generate.gen_stmt) =
  (gf.gf_fname, st.g_col, st.g_line, st.g_inst)

let test_no_fault_run () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let report = R.Report.create () in
  let plain = V.Pipeline.generate_backend t ~target:"RISCV" ~decoder in
  let watched =
    V.Pipeline.generate_backend ~fallback:decoder ~report t ~target:"RISCV" ~decoder
  in
  Alcotest.(check int) "no faults" 0 (R.Report.total report);
  Alcotest.(check int) "no degradation" 0 (R.Report.degraded_count report);
  Alcotest.(check int) "same function count" (List.length plain)
    (List.length watched);
  List.iter2
    (fun (a : V.Generate.gen_func) (b : V.Generate.gen_func) ->
      Alcotest.(check string) "same function" a.gf_fname b.gf_fname;
      List.iter2
        (fun (x : V.Generate.gen_stmt) (y : V.Generate.gen_stmt) ->
          Alcotest.(check bool) "all primary" true (y.g_level = R.Degrade.Primary);
          Alcotest.(check bool) "identical tokens" true (x.g_tokens = y.g_tokens);
          Alcotest.(check (float 1e-9)) "identical score" x.g_score y.g_score)
        a.gf_stmts b.gf_stmts)
    plain watched

let test_decoder_raise_with_fallback () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let inj = R.Inject.create ~every:2 ~seed:13 R.Inject.Decoder_raise in
  let report = R.Report.create () in
  let faulty = R.Inject.wrap_decoder inj decoder in
  let plain = V.Pipeline.generate_backend t ~target:"RISCV" ~decoder in
  let gfs =
    V.Pipeline.generate_backend ~fallback:decoder ~report t ~target:"RISCV"
      ~decoder:faulty
  in
  Alcotest.(check bool) "faults were injected" true (R.Inject.injected inj > 0);
  (* invariant: every injected fault appears in the run report *)
  Alcotest.(check int) "all injected faults observed" (R.Inject.injected inj)
    (R.Report.total report);
  (* invariant: the run never aborts — same functions come back *)
  Alcotest.(check int) "function count unchanged" (List.length plain)
    (List.length gfs);
  let base = Hashtbl.create 512 in
  List.iter
    (fun gf ->
      List.iter
        (fun (st : V.Generate.gen_stmt) ->
          Hashtbl.replace base (stmt_key gf st) st.V.Generate.g_score)
        gf.V.Generate.gf_stmts)
    plain;
  List.iter
    (fun gf ->
      List.iter
        (fun (st : V.Generate.gen_stmt) ->
          (* degraded statements stay under their rung's cap and never
             exceed the clean-run score of the same slot *)
          Alcotest.(check bool) "score finite in [0,1]" true
            (Float.is_finite st.g_score && st.g_score >= 0.0 && st.g_score <= 1.0);
          Alcotest.(check bool) "score under rung cap" true
            (st.g_score <= R.Degrade.cap st.g_level +. 1e-9);
          (match Hashtbl.find_opt base (stmt_key gf st) with
          | Some clean ->
              Alcotest.(check bool) "monotone vs clean run" true
                (st.g_score <= clean +. 1e-9)
          | None -> ());
          Alcotest.(check bool) "only retry/fallback rungs" true
            (match st.g_level with
            | R.Degrade.Primary | R.Degrade.Retry | R.Degrade.Retrieval_fallback ->
                true
            | _ -> false))
        gf.V.Generate.gf_stmts)
    gfs;
  Alcotest.(check bool) "some statements degraded" true
    (R.Report.degraded_count report > 0)

let test_decoder_raise_no_fallback () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let inj = R.Inject.create ~every:1 ~seed:13 R.Inject.Decoder_raise in
  let report = R.Report.create () in
  let faulty = R.Inject.wrap_decoder inj decoder in
  (* every decode fails and there is no fallback decoder: the ladder must
     bottom out at template defaults / omissions, never crash *)
  let gfs = V.Pipeline.generate_backend ~report t ~target:"RISCV" ~decoder:faulty in
  Alcotest.(check bool) "functions still produced" true (gfs <> []);
  List.iter
    (fun gf ->
      List.iter
        (fun (st : V.Generate.gen_stmt) ->
          match st.V.Generate.g_level with
          | R.Degrade.Template_default ->
              Alcotest.(check bool) "template default under threshold" true
                (st.g_score < 0.5)
          | R.Degrade.Omitted ->
              Alcotest.(check (float 0.0)) "omitted scores zero" 0.0 st.g_score;
              Alcotest.(check bool) "omitted has no tokens" true (st.g_tokens = [])
          | l ->
              Alcotest.failf "unexpected rung %s without fallback"
                (R.Degrade.name l))
        gf.V.Generate.gf_stmts)
    gfs;
  Alcotest.(check int) "bottom rungs account for everything"
    (R.Report.degraded_count report)
    (R.Report.count_level report R.Degrade.Template_default
    + R.Report.count_level report R.Degrade.Omitted)

let test_decoder_tensor_fault () =
  (* regression: a tensor-kernel failure escaping the model decoder is a
     typed [Tensor_fault] (decoder class) — it degrades through the
     ladder like any decoder raise instead of aborting the run, which is
     exactly what a bare [Assert_failure] used to do *)
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let faulty _fv =
    raise
      (R.Fault.Fault
         (R.Fault.Tensor_fault { op = "matmul"; detail = "shape mismatch" }))
  in
  let report = R.Report.create () in
  let gfs =
    V.Pipeline.generate_backend ~fallback:decoder ~report t ~target:"RISCV"
      ~decoder:faulty
  in
  Alcotest.(check bool) "functions still produced" true (gfs <> []);
  Alcotest.(check bool) "tensor faults recorded as decoder class" true
    (R.Report.count_class report R.Fault.Cdecoder > 0);
  List.iter
    (fun gf ->
      List.iter
        (fun (st : V.Generate.gen_stmt) ->
          Alcotest.(check bool) "score under rung cap" true
            (st.g_score <= R.Degrade.cap st.g_level +. 1e-9);
          Alcotest.(check bool) "ladder rung, not a crash" true
            (match st.g_level with
            | R.Degrade.Primary -> false
            | _ -> true))
        gf.V.Generate.gf_stmts)
    gfs

let test_decoder_nan_injection () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let inj = R.Inject.create ~every:3 ~seed:13 R.Inject.Decoder_nan in
  let report = R.Report.create () in
  let faulty = R.Inject.wrap_decoder inj decoder in
  let gfs =
    V.Pipeline.generate_backend ~fallback:decoder ~report t ~target:"RISCV"
      ~decoder:faulty
  in
  Alcotest.(check int) "every nan observed" (R.Inject.injected inj)
    (R.Report.total report);
  Alcotest.(check int) "all classified as score faults" (R.Inject.injected inj)
    (R.Report.count_class report R.Fault.Cscore);
  List.iter
    (fun gf ->
      List.iter
        (fun (st : V.Generate.gen_stmt) ->
          Alcotest.(check bool) "no nan leaks into scores" true
            (Float.is_finite st.V.Generate.g_score))
        gf.V.Generate.gf_stmts)
    gfs

let test_corpus_corruption () =
  let inj = R.Inject.create ~every:5 ~seed:13 R.Inject.Corpus_mangle in
  let corrupted = R.Inject.corrupt_corpus inj (Lazy.force corpus) in
  Alcotest.(check bool) "groups were mangled" true (R.Inject.injected inj > 0);
  let report = R.Report.create () in
  (* prepare must drop the mangled impls per-impl, record each, and survive *)
  let prep = V.Pipeline.prepare ~report ~corpus:corrupted () in
  Alcotest.(check int) "every mangled impl recorded" (R.Inject.injected inj)
    (R.Report.count_class report R.Fault.Ccorpus);
  Alcotest.(check bool) "bundles survive" true (prep.V.Pipeline.bundles <> [])

let test_descfile_corruption_scan () =
  (* rebuild a private corpus: corrupt_descfiles mutates the VFS in place *)
  let c = Vega_corpus.Corpus.build () in
  let vfs = c.Vega_corpus.Corpus.vfs in
  let inj = R.Inject.create ~every:2 ~seed:13 R.Inject.Descfile_garbage in
  let paths = R.Inject.corrupt_descfiles inj vfs ~target:"RISCV" in
  Alcotest.(check bool) "files were corrupted" true (paths <> []);
  let report = R.Report.create () in
  let found = R.Inject.scan_vfs ~report vfs ~target:"RISCV" in
  Alcotest.(check int) "scan finds every corrupted file" (List.length paths)
    (List.length found);
  Alcotest.(check int) "scan records every corrupted file" (List.length paths)
    (R.Report.count_class report R.Fault.Cdescfile)

let test_descfile_quarantine () =
  (* a training target whose description files are mangled is quarantined
     at prepare — recorded, its training data dropped, the run continues *)
  let c = Vega_corpus.Corpus.build () in
  let vfs = c.Vega_corpus.Corpus.vfs in
  let victim =
    (List.hd Vega_target.Registry.training).Vega_target.Profile.name
  in
  let inj = R.Inject.create ~every:1 ~seed:13 R.Inject.Descfile_garbage in
  let paths = R.Inject.corrupt_descfiles inj vfs ~target:victim in
  Alcotest.(check bool) "files were corrupted" true (paths <> []);
  let report = R.Report.create () in
  let prep = V.Pipeline.prepare ~report ~corpus:c () in
  Alcotest.(check (list string)) "victim quarantined" [ victim ]
    prep.V.Pipeline.quarantined;
  Alcotest.(check bool) "corruption recorded" true
    (R.Report.count_class report R.Fault.Cdescfile > 0);
  Alcotest.(check bool) "bundles survive" true (prep.V.Pipeline.bundles <> []);
  (* the quarantined target's reference implementations are gone *)
  List.iter
    (fun (g : Vega_corpus.Corpus.group) ->
      Alcotest.(check bool)
        (g.Vega_corpus.Corpus.spec.Vega_corpus.Spec.fname
        ^ ": victim impls dropped")
        false
        (List.exists
           (fun (i : Vega_corpus.Corpus.impl) ->
             i.Vega_corpus.Corpus.target = victim)
           g.Vega_corpus.Corpus.impls))
    prep.V.Pipeline.corpus.Vega_corpus.Corpus.groups;
  (* a healthy corpus quarantines nothing *)
  let clean = V.Pipeline.prepare () in
  Alcotest.(check (list string)) "clean corpus: no quarantine" []
    clean.V.Pipeline.quarantined

let suite =
  [
    Alcotest.test_case "fault taxonomy" `Quick test_taxonomy;
    Alcotest.test_case "degradation ladder" `Quick test_degrade_ladder;
    Alcotest.test_case "run report" `Quick test_report;
    Alcotest.test_case "stage classify" `Quick test_stage_classify;
    Alcotest.test_case "stage protect" `Quick test_stage_protect;
    Alcotest.test_case "stage backtrace capture" `Quick test_stage_backtrace;
    QCheck_alcotest.to_alcotest qcheck_ladder_caps;
    Alcotest.test_case "bounds-checked nth" `Quick test_bounds_nth;
    Alcotest.test_case "mean_token_prob nan" `Quick test_mean_token_prob_nan;
    Alcotest.test_case "confidence sanitize" `Quick test_confidence_sanitize;
    Alcotest.test_case "injection determinism" `Quick test_inject_determinism;
    Alcotest.test_case "no-fault run unchanged" `Quick test_no_fault_run;
    Alcotest.test_case "decoder raise + fallback" `Quick test_decoder_raise_with_fallback;
    Alcotest.test_case "decoder raise, no fallback" `Quick test_decoder_raise_no_fallback;
    Alcotest.test_case "decoder tensor fault degrades" `Quick
      test_decoder_tensor_fault;
    Alcotest.test_case "decoder nan injection" `Quick test_decoder_nan_injection;
    Alcotest.test_case "corpus corruption" `Quick test_corpus_corruption;
    Alcotest.test_case "descfile corruption scan" `Quick test_descfile_corruption_scan;
    Alcotest.test_case "descfile quarantine at prepare" `Quick
      test_descfile_quarantine;
  ]
