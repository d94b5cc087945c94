(* Tests for the pass@1 harness, ForkFlow baseline, and end-to-end
   generation with the retrieval decoder (the fast, deterministic arm). *)

module E = Vega_eval
module C = Vega_corpus.Corpus
module V = Vega

let quick_cases =
  List.filter_map Vega_ir.Programs.find
    [ "arith_basic"; "branches"; "globals_array"; "calls_simple" ]

let corpus = lazy (C.build ())
let riscv = Vega_target.Registry.riscv

let reference =
  lazy
    (E.Regression.reference_artifacts (Lazy.force corpus).C.vfs riscv
       ~cases:quick_cases ())

let test_reference_passes () =
  let vfs = (Lazy.force corpus).C.vfs in
  match
    E.Regression.check_sources vfs riscv
      ~sources:(C.reference_sources riscv)
      ~reference:(Lazy.force reference) ~cases:quick_cases ()
  with
  | Ok () -> ()
  | Error f -> Alcotest.failf "reference failed %s: %s" f.f_case f.f_reason

let test_pass1_identity () =
  let vfs = (Lazy.force corpus).C.vfs in
  let spec = Option.get (C.find_spec "getRelocType") in
  let f = Option.get (C.reference_inlined spec riscv) in
  match
    E.Regression.pass1 vfs riscv ~reference:(Lazy.force reference)
      ~fname:"getRelocType" ~replacement:(Some f) ~cases:quick_cases ()
  with
  | Ok () -> ()
  | Error fl -> Alcotest.failf "identity replacement failed: %s" fl.f_reason

let test_pass1_detects_wrong_value () =
  let vfs = (Lazy.force corpus).C.vfs in
  (* a getBranchFixup returning the wrong fixup changes artifacts *)
  let wrong =
    Vega_srclang.Parser.parse_function
      "unsigned getBranchFixup() { return RISCV::fixup_riscv_jal; }"
  in
  match
    E.Regression.pass1 vfs riscv ~reference:(Lazy.force reference)
      ~fname:"getBranchFixup" ~replacement:(Some wrong) ~cases:quick_cases ()
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong fixup kind must fail pass@1"

let test_pass1_detects_missing () =
  let vfs = (Lazy.force corpus).C.vfs in
  match
    E.Regression.pass1 vfs riscv ~reference:(Lazy.force reference)
      ~fname:"selectOpcode" ~replacement:None ~cases:quick_cases ()
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing hook must fail pass@1"

let test_forkflow_is_weak () =
  (* fork-from-MIPS with mechanical renames: fixup members survive the
     rename and are wrong for RISCV *)
  let forked = V.Forkflow.fork_backend ~dst:riscv in
  let spec, f =
    List.find (fun ((s : Vega_corpus.Spec.t), _) -> s.fname = "getRelocType") forked
  in
  ignore spec;
  let text = Vega_srclang.Lines.to_source (Vega_srclang.Lines.of_func f) in
  Alcotest.(check bool) "renamed class" true
    (Vega_util.Strutil.contains_sub ~sub:"RISCVELFObjectWriter" text);
  Alcotest.(check bool) "MIPS fixups leak through" true
    (Vega_util.Strutil.contains_sub ~sub:"fixup_Mips_HI16" text);
  let vfs = (Lazy.force corpus).C.vfs in
  match
    E.Regression.pass1 vfs riscv ~reference:(Lazy.force reference)
      ~fname:"getRelocType" ~replacement:(Some f) ~cases:quick_cases ()
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "forked getRelocType must fail pass@1"

(* A misbehaving hook ends pass@1 with a typed failure whichever stage
   meets it, never with an escaping exception: the simulator reads the
   cycle-model hooks and writes the convention registers before it runs
   a program, the assembler round-trip calls isRegisterName, and the
   calling convention sizes its argument-register list from a hook. *)
let test_pass1_never_raises () =
  let vfs = (Lazy.force corpus).C.vfs in
  let check fname replacement want =
    match
      E.Regression.pass1 vfs riscv ~reference:(Lazy.force reference) ~fname
        ~replacement ~cases:quick_cases ()
    with
    | Ok () -> Alcotest.failf "%s must fail pass@1" fname
    | Error f ->
        Alcotest.(check (pair string bool)) fname want
          (f.E.Regression.f_reason, E.Regression.is_timeout f)
    | exception e -> Alcotest.failf "%s: pass@1 raised %s" fname (Printexc.to_string e)
  in
  let generated fname src want =
    check fname (Some (Vega_srclang.Parser.parse_function src)) want
  in
  generated "getIssueWidth"
    "unsigned getIssueWidth() { llvm_unreachable(\"no model\"); }"
    ("trap: hook getIssueWidth: llvm_unreachable: no model", false);
  generated "getLoadLatency" "unsigned getLoadLatency() { return; }"
    ("trap: hook getLoadLatency: expected integer, got void", false);
  generated "getMispredictPenalty"
    "unsigned getMispredictPenalty() { while (true) { } return 1; }"
    ("timeout: interpreter fuel (100000) exhausted", true);
  generated "getFrameRegister" "unsigned getFrameRegister() { return 99; }"
    ("trap: bad register 99", false);
  generated "isRegisterName"
    "bool isRegisterName(StringRef Name) { while (true) { } return true; }"
    ("timeout: interpreter fuel (100000) exhausted", true);
  generated "getNumArgRegisters" "unsigned getNumArgRegisters() { return -1; }"
    ("hook getNumArgRegisters: negative register count", false);
  List.iter
    (fun fname ->
      check fname None (Printf.sprintf "trap: hook %s: hook not implemented" fname, false))
    [ "getIssueWidth"; "getLoadLatency"; "getMispredictPenalty" ]

(* ---- end-to-end generation with the retrieval decoder ---- *)

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

let test_generated_getreloctype_passes () =
  let t = Lazy.force pipeline in
  let gf =
    Option.get
      (V.Pipeline.generate_function t ~target:"RISCV"
         ~decoder:(V.Pipeline.retrieval_decoder t) ~fname:"getRelocType")
  in
  let source = V.Generate.source_of gf in
  (* structurally correct: parses, and has the variant-kind paragraph *)
  (match Vega_srclang.Parser.parse_function_opt source with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "generated getRelocType does not parse: %s" m);
  Alcotest.(check bool) "has RISCV variant arm" true
    (Vega_util.Strutil.contains_sub ~sub:"VK_GOT" source);
  Alcotest.(check bool) "enumerates riscv fixups" true
    (Vega_util.Strutil.contains_sub ~sub:"fixup_riscv_branch" source)

(* One evaluation per held-out target and arm, shared by the tests
   below, in [Registry.held_out] order. *)
let per_target evaluate =
  lazy
    (List.map
       (fun (p : Vega_target.Profile.t) -> (p.name, evaluate p))
       Vega_target.Registry.held_out)

let generated =
  per_target (fun p ->
      let t = Lazy.force pipeline in
      E.Metrics.evaluate_target t ~decoder:(V.Pipeline.retrieval_decoder t) p
        ~cases:quick_cases ())

let forked =
  per_target (fun p ->
      E.Metrics.evaluate_forkflow (Lazy.force pipeline).V.Pipeline.prep p
        ~cases:quick_cases ())

let fn_accuracy te = E.Metrics.fn_accuracy te.E.Metrics.te_fns

let test_generated_backend_accuracy_floor () =
  (* the retrieval arm scores about 0.59-0.73 on these cases *)
  List.iter
    (fun (name, te) ->
      let acc = fn_accuracy te in
      Alcotest.(check bool)
        (Printf.sprintf "%s retrieval accuracy %.2f above floor" name acc)
        true (acc > 0.35))
    (Lazy.force generated)

let test_forkflow_accuracy_ceiling () =
  (* our corpus is more uniform than real LLVM, so ForkFlow lands higher
     than the paper's <8% (about 0.48-0.52 here); the claim that survives
     scaling is the gap, about 0.07-0.25 per target *)
  List.iter2
    (fun (name, gen) (_, fork) ->
      let ga = fn_accuracy gen and fa = fn_accuracy fork in
      Alcotest.(check bool)
        (Printf.sprintf "%s: vega %.2f beats forkflow %.2f" name ga fa)
        true (ga > fa))
    (Lazy.force generated) (Lazy.force forked)

let test_effort_model () =
  List.iter
    (fun (name, te) ->
      let h = E.Effort.total_hours E.Effort.developer_a te in
      Alcotest.(check bool)
        (Printf.sprintf "%s hours positive and bounded" name)
        true (h >= 0.0 && h < 200.0))
    (Lazy.force generated)

let suite =
  [
    Alcotest.test_case "reference backend passes" `Quick test_reference_passes;
    Alcotest.test_case "pass@1 identity" `Quick test_pass1_identity;
    Alcotest.test_case "pass@1 detects wrong value" `Quick test_pass1_detects_wrong_value;
    Alcotest.test_case "pass@1 detects missing hook" `Quick test_pass1_detects_missing;
    Alcotest.test_case "forkflow is weak" `Quick test_forkflow_is_weak;
    Alcotest.test_case "generated getRelocType" `Slow test_generated_getreloctype_passes;
    Alcotest.test_case "generation accuracy floor" `Slow test_generated_backend_accuracy_floor;
    Alcotest.test_case "forkflow accuracy ceiling" `Slow test_forkflow_accuracy_ceiling;
    Alcotest.test_case "effort model" `Slow test_effort_model;
    Alcotest.test_case "pass@1 never raises" `Quick test_pass1_never_raises;
  ]
