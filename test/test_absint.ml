(* Tests for the abstract-interpretation verifier (vega.absint): lattice
   laws and fixpoint termination under widening (qcheck), the zero
   false-positive sweep over every reference backend, seeded semantic
   defects caught by the intended VS rule, fault injection (decoder
   garbage, register mangling) surfacing as semantic diagnostics, and
   the confidence cap that routes flagged functions into the Err-PS
   review queue. *)

module AB = Vega_absint
module D = Vega_analysis.Diagnostic
module V = Vega
module R = Vega_robust
module P = Vega_target.Profile

let corpus = lazy (Vega_corpus.Corpus.build ())
let riscv = Vega_target.Registry.riscv

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

let rules ds = List.map (fun (d : D.t) -> d.D.rule) ds
let sem_diags ds = List.filter (fun (d : D.t) -> d.D.cls = D.Sem) ds

let verify ?reference src =
  AB.Verify.verify_source ?reference ~fname:"test" src

let check_rule name rule src =
  let ds = verify src in
  Alcotest.(check bool)
    (Printf.sprintf "%s reports %s (got: %s)" name rule
       (String.concat ", " (rules ds)))
    true
    (List.mem rule (rules ds))

let parse_fn src =
  match Vega_srclang.Parser.parse_function_opt src with
  | Ok f -> f
  | Error m -> Alcotest.failf "test function does not parse: %s" m

(* ------------------------------------------------------------------ *)
(* qcheck: lattice laws per domain                                     *)

let itv_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return AB.Interval.Bot);
        ( 6,
          let bound = frequency [ (1, return None); (3, map Option.some (int_range (-50) 50)) ] in
          map2
            (fun lo hi ->
              match (lo, hi) with
              | Some a, Some b -> AB.Interval.Itv (Some (min a b), Some (max a b))
              | _ -> AB.Interval.Itv (lo, hi))
            bound bound );
      ])

let itv_arb = QCheck.make ~print:(fun _ -> "<itv>") itv_gen

(* containment order on intervals *)
let itv_leq a b =
  match (a, b) with
  | AB.Interval.Bot, _ -> true
  | _, AB.Interval.Bot -> false
  | AB.Interval.Itv (lo1, hi1), AB.Interval.Itv (lo2, hi2) ->
      (match (lo1, lo2) with
      | _, None -> true
      | None, Some _ -> false
      | Some a, Some b -> a >= b)
      &&
      (match (hi1, hi2) with
      | _, None -> true
      | None, Some _ -> false
      | Some a, Some b -> a <= b)

let initv_gen =
  QCheck.Gen.oneofl [ AB.Initdom.Uninit; AB.Initdom.Init; AB.Initdom.Maybe ]

let initv_arb = QCheck.make ~print:(fun _ -> "<initv>") initv_gen

let av_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> AB.Regdom.Orig r) (int_range 0 15);
        map (fun c -> AB.Regdom.Const c) (int_range (-8) 8);
        map (fun o -> AB.Regdom.Stack (Some o)) (int_range (-16) 16);
        return (AB.Regdom.Stack None);
        return AB.Regdom.Other;
      ])

let av_arb = QCheck.make ~print:(fun _ -> "<av>") av_gen

let qcheck_props =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"interval join commutative" ~count:500
        (QCheck.pair itv_arb itv_arb)
        (fun (a, b) -> AB.Interval.join_itv a b = AB.Interval.join_itv b a);
      QCheck.Test.make ~name:"interval join idempotent" ~count:200 itv_arb
        (fun a -> AB.Interval.join_itv a a = a);
      QCheck.Test.make ~name:"interval join is an upper bound" ~count:500
        (QCheck.pair itv_arb itv_arb)
        (fun (a, b) ->
          let j = AB.Interval.join_itv a b in
          itv_leq a j && itv_leq b j);
      QCheck.Test.make ~name:"interval widen covers join" ~count:500
        (QCheck.pair itv_arb itv_arb)
        (fun (a, b) -> itv_leq (AB.Interval.join_itv a b) (AB.Interval.widen_itv a b));
      QCheck.Test.make
        ~name:"interval transfer monotone (add is inclusion-preserving)"
        ~count:500
        (QCheck.pair itv_arb itv_arb)
        (fun (a, b) ->
          QCheck.assume (itv_leq a b);
          itv_leq
            (AB.Interval.add_itv a (AB.Interval.const 1))
            (AB.Interval.add_itv b (AB.Interval.const 1)));
      QCheck.Test.make ~name:"initdom join commutative+idempotent" ~count:100
        (QCheck.pair initv_arb initv_arb)
        (fun (a, b) ->
          AB.Initdom.join_v a b = AB.Initdom.join_v b a
          && AB.Initdom.join_v a a = a);
      QCheck.Test.make ~name:"regdom join commutative+idempotent" ~count:500
        (QCheck.pair av_arb av_arb)
        (fun (a, b) ->
          AB.Regdom.join_av a b = AB.Regdom.join_av b a
          && AB.Regdom.join_av a a = a);
    ]

(* ------------------------------------------------------------------ *)
(* qcheck: fixpoint termination under widening on random small CFGs    *)

module CounterDom = struct
  type t = AB.Interval.itv

  let bottom = AB.Interval.Bot
  let equal = ( = )
  let join = AB.Interval.join_itv
  let widen = AB.Interval.widen_itv
end

module CF = AB.Fixpoint.Make (CounterDom)

(* random CFG: n nodes, arbitrary forward and backward edges, every
   cycle passing through an index-order loop head *)
let cfg_gen =
  QCheck.Gen.(
    int_range 2 10 >>= fun n ->
    let edge = int_range 0 (n - 1) in
    list_size (int_range 0 (2 * n)) (pair edge edge) >>= fun edges ->
    return (n, edges))

let cfg_arb =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "%d nodes, edges [%s]" n
        (String.concat "; "
           (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) edges)))
    cfg_gen

let build_cfg (n, edges) =
  let succs = Array.make n [] in
  List.iter
    (fun (a, b) -> succs.(a) <- b :: succs.(a))
    ((if n > 1 then [ (0, 1) ] else []) @ edges);
  let t =
    AB.Cfg.create (Array.init n Fun.id) succs ~entry:0 ~exit_:(n - 1)
  in
  AB.Cfg.mark_loop_heads_by_index t;
  t

let fixpoint_props =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make
        ~name:"fixpoint terminates under widening (ascending counter)"
        ~count:300 cfg_arb
        (fun spec ->
          let cfg = build_cfg spec in
          (* the counter strictly ascends around every cycle: without
             widening at loop heads this would climb forever *)
          let r =
            CF.solve cfg
              ~init:(AB.Interval.const 0)
              ~transfer:(fun _node v ->
                AB.Interval.add_itv v (AB.Interval.const 1))
          in
          Array.length r.CF.input = Array.length cfg.AB.Cfg.nodes);
      QCheck.Test.make ~name:"fixpoint inputs are post-fixpoints" ~count:300
        cfg_arb
        (fun spec ->
          let cfg = build_cfg spec in
          let transfer _node v = AB.Interval.add_itv v (AB.Interval.const 1) in
          let r = CF.solve cfg ~init:(AB.Interval.const 0) ~transfer in
          (* every node's input covers every predecessor's output *)
          Array.for_all
            (fun (node : int AB.Cfg.node) ->
              List.for_all
                (fun p -> itv_leq r.CF.output.(p) r.CF.input.(node.AB.Cfg.id))
                node.AB.Cfg.preds)
            cfg.AB.Cfg.nodes);
    ]

(* ------------------------------------------------------------------ *)
(* Zero false positives on the corpus                                  *)

(* Every reference backend verifies clean — AST domains, differential
   summaries against themselves, and register discipline of the code
   the reference backend emits. The verifier's false-positive bar on
   the corpus is zero, whether the targets are verified in turn or
   fanned over two domains. *)
let test_references_clean () =
  let vfs = (Lazy.force corpus).Vega_corpus.Corpus.vfs in
  let targets = Vega_target.Registry.all in
  List.iter
    (fun domains ->
      List.iter2
        (fun (p : P.t) r ->
          if AB.Verify.diag_count r > 0 then
            Alcotest.failf
              "%s reference backend not semantically clean (%d domain(s)):\n%s"
              p.P.name domains
              (String.concat "\n"
                 (List.map D.to_string (AB.Verify.report_diags r))))
        targets
        (Vega_util.Par.map ~domains (AB.Verify.verify_target vfs) targets))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Seeded defects per domain                                           *)

let test_div_by_zero () =
  check_rule "definite division by zero" "VS-V01"
    "unsigned f(unsigned v) { unsigned d = 0; return v / d; }"

let test_oversized_shift () =
  check_rule "definitely out-of-range shift" "VS-V02"
    "unsigned f(unsigned v) { unsigned s = 70; return v << s; }"

let test_uninitialized_read () =
  check_rule "read of never-assigned local" "VS-I01"
    "unsigned f() { unsigned K; return K; }"

let test_maybe_uninitialized_read () =
  check_rule "read initialized on only one path" "VS-I02"
    {|unsigned f(unsigned c) {
  unsigned x;
  if (c == 0) {
    x = 1;
  }
  return x;
}|}

let gen_ref_pair gen_src ref_src =
  verify ~reference:(parse_fn ref_src) gen_src

let test_differential_disagreement () =
  let ds =
    gen_ref_pair
      {|unsigned f(unsigned Kind) {
  switch (Kind) {
  case RISCV::fixup_riscv_branch:
    return 1;
  default:
    return 0;
  }
}|}
      {|unsigned f(unsigned Kind) {
  switch (Kind) {
  case RISCV::fixup_riscv_branch:
    return 2;
  default:
    return 0;
  }
}|}
  in
  Alcotest.(check bool)
    (Printf.sprintf "VS-M01 on diverging return (got: %s)"
       (String.concat ", " (rules ds)))
    true
    (List.mem "VS-M01" (rules ds));
  (* the agreeing default path must NOT be flagged *)
  Alcotest.(check bool) "exactly one disagreement" true
    (List.length (sem_diags ds) = 1)

let test_differential_fallthrough () =
  let ds =
    gen_ref_pair
      {|unsigned f(unsigned Kind) {
  if (Kind == 0) {
    return 1;
  }
}|}
      {|unsigned f(unsigned Kind) {
  if (Kind == 0) {
    return 1;
  }
  return 2;
}|}
  in
  Alcotest.(check bool)
    (Printf.sprintf "VS-M02 on missing default return (got: %s)"
       (String.concat ", " (rules ds)))
    true
    (List.mem "VS-M02" (rules ds))

(* identical functions never disagree, and loops/effects are excluded
   rather than guessed at (sound-but-incomplete) *)
let test_differential_self_silent () =
  let src =
    {|unsigned f(unsigned Kind) {
  unsigned r = 0;
  for (unsigned i = 0; i < Kind; i += 1) {
    r += i;
  }
  if (Kind == 0) {
    return r;
  }
  return computeWeird(r);
}|}
  in
  let ds = gen_ref_pair src src in
  Alcotest.(check (list string)) "self-comparison is silent" [] (rules ds)

(* ------------------------------------------------------------------ *)
(* Fault injection produces semantic diagnostics                       *)

let test_register_mangle_caught () =
  let vfs = (Lazy.force corpus).Vega_corpus.Corpus.vfs in
  let conv = AB.Verify.conv_for vfs riscv in
  let callee_saved = riscv.P.regs.P.callee_saved in
  let case = List.hd Vega_ir.Programs.regression in
  let out =
    Vega_backend.Compiler.compile conv ~opt:Vega_backend.Compiler.O0
      (Vega_ir.Programs.modul_of case)
  in
  let asm = out.Vega_backend.Compiler.asm in
  (* clean emitted code passes... *)
  Alcotest.(check (list string))
    "unmangled asm is clean" []
    (rules (AB.Regdom.check_asm conv ~callee_saved asm));
  (* ...then delete every restore line from the epilogues *)
  let inj = R.Inject.create ~every:1 ~seed:0 R.Inject.Register_mangle in
  let mangled =
    R.Inject.mangle_asm inj
      ~candidate:(AB.Regdom.restore_line conv ~callee_saved)
      asm
  in
  Alcotest.(check bool) "restore lines were deleted" true
    (R.Inject.injected inj > 0);
  let ds = AB.Regdom.check_asm conv ~callee_saved mangled in
  Alcotest.(check bool)
    (Printf.sprintf "mangled asm flagged (got: %s)"
       (String.concat ", " (rules ds)))
    true
    (List.exists
       (fun r -> r = "VS-R01" || r = "VS-R03")
       (rules ds));
  Alcotest.(check bool) "all diagnostics are semantic" true
    (List.length (sem_diags ds) = List.length ds)

let test_decoder_garbage_caught () =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let inj = R.Inject.create ~every:1 ~seed:13 R.Inject.Decoder_garbage in
  let wrapped = R.Inject.wrap_decoder inj decoder in
  (* garbage every decode of one statement slot per column: the
     signature survives so the kept source still parses, but the
     poisoned statements degrade (no fallback) to template defaults or
     omissions and the function's meaning diverges from the reference *)
  let faulty (fv : V.Featrep.fv) =
    if fv.V.Featrep.line = 1 then wrapped fv else decoder fv
  in
  let gfs = V.Pipeline.generate_backend t ~target:"RISCV" ~decoder:faulty in
  Alcotest.(check bool) "garbage was injected" true (R.Inject.injected inj > 0);
  let sem_total =
    List.fold_left
      (fun acc (gf : V.Generate.gen_func) ->
        let spec =
          List.find_map
            (fun (b : V.Pipeline.bundle) ->
              if b.V.Pipeline.spec.Vega_corpus.Spec.fname = gf.V.Generate.gf_fname
              then Some b.V.Pipeline.spec
              else None)
            t.V.Pipeline.prep.V.Pipeline.bundles
        in
        match spec with
        | None -> acc
        | Some spec -> (
            match Vega_corpus.Corpus.reference_inlined spec riscv with
            | None -> acc
            | Some reference ->
                let ds =
                  AB.Verify.verify_source ~reference
                    ~fname:gf.V.Generate.gf_fname
                    (V.Generate.source_of gf)
                in
                acc + List.length (sem_diags ds)))
      0 gfs
  in
  Alcotest.(check bool)
    (Printf.sprintf "decoder garbage yields semantic diagnostics (got %d)"
       sem_total)
    true (sem_total >= 1)

(* ------------------------------------------------------------------ *)
(* Confidence cap and the Err-PS queue                                 *)

let mk_gf ~fname ~confidence =
  {
    V.Generate.gf_fname = fname;
    gf_module = List.hd Vega_target.Module_id.all;
    gf_target = "RISCV";
    gf_confidence = confidence;
    gf_stmts = [];
  }

let test_semantic_verdict_caps_confidence () =
  (* a real semantic disagreement... *)
  let ds =
    gen_ref_pair "unsigned f(unsigned c) { return 1; }"
      "unsigned f(unsigned c) { return 2; }"
  in
  let sem_errors = AB.Verify.sem_errors ds in
  Alcotest.(check bool) "disagreement found" true (sem_errors >= 1);
  (* ...caps an otherwise-confident function below the accept threshold *)
  let gf = mk_gf ~fname:"f" ~confidence:0.97 in
  let gf' = V.Generate.apply_verdict gf ~sem_errors in
  Alcotest.(check bool)
    (Printf.sprintf "confidence capped below threshold (%.2f)"
       gf'.V.Generate.gf_confidence)
    true
    (gf'.V.Generate.gf_confidence < V.Confidence.threshold);
  Alcotest.(check bool) "cap honours the semantic ceiling" true
    (gf'.V.Generate.gf_confidence <= V.Confidence.semantic_cap +. 1e-9);
  (* zero errors is the identity *)
  let same = V.Generate.apply_verdict gf ~sem_errors:0 in
  Alcotest.(check (float 1e-9)) "no errors, no cap" 0.97
    same.V.Generate.gf_confidence;
  (* more errors push the function further down the review queue *)
  let worse = V.Generate.apply_verdict gf ~sem_errors:(sem_errors + 3) in
  Alcotest.(check bool) "more errors rank lower" true
    (worse.V.Generate.gf_confidence < gf'.V.Generate.gf_confidence)

let test_errps_queue_order () =
  let clean = mk_gf ~fname:"clean" ~confidence:0.9 in
  let flagged =
    V.Generate.apply_verdict (mk_gf ~fname:"flagged" ~confidence:0.95)
      ~sem_errors:2
  in
  (* the Err-PS review queue is ordered by ascending confidence: the
     semantically-flagged function must surface first *)
  let queue =
    List.sort
      (fun (a : V.Generate.gen_func) b ->
        compare a.V.Generate.gf_confidence b.V.Generate.gf_confidence)
      [ clean; flagged ]
  in
  Alcotest.(check string) "flagged function heads the queue" "flagged"
    (List.hd queue).V.Generate.gf_fname;
  Alcotest.(check bool) "flagged function is below threshold" true
    ((List.hd queue).V.Generate.gf_confidence < V.Confidence.threshold)

(* ------------------------------------------------------------------ *)
(* Diagnostic dedupe and stable order (lint satellite)                 *)

let test_dedup_overlapping_spans () =
  let span line col = { Vega_srclang.Span.line; col } in
  let mk ~rule ~span:sp msg =
    D.make ~rule ~cls:D.Sem ~severity:D.Error ~fname:"f" ~span:sp msg
  in
  let d1 = mk ~rule:"VS-M01" ~span:(span 4 1) "a" in
  let d2 = mk ~rule:"VS-I01" ~span:(span 4 1) "b" in
  let d3 = mk ~rule:"VS-M01" ~span:(span 2 7) "c" in
  (* duplicates collapse; survivors sort by span, then rule id *)
  let out = D.dedup [ d1; d2; d1; d3; d2; d1 ] in
  Alcotest.(check int) "duplicates collapsed" 3 (List.length out);
  Alcotest.(check (list string)) "span-then-rule order"
    [ "VS-M01"; "VS-I01"; "VS-M01" ]
    (rules out);
  Alcotest.(check (list string)) "stable under re-dedup"
    (rules out)
    (rules (D.dedup out))

let suite =
  [
    ("references verify clean (zero FP sweep)", `Slow, test_references_clean);
    ("VS-V01 division by zero", `Quick, test_div_by_zero);
    ("VS-V02 oversized shift", `Quick, test_oversized_shift);
    ("VS-I01 uninitialized read", `Quick, test_uninitialized_read);
    ("VS-I02 maybe-uninitialized read", `Quick, test_maybe_uninitialized_read);
    ("VS-M01 differential disagreement", `Quick, test_differential_disagreement);
    ("VS-M02 differential fallthrough", `Quick, test_differential_fallthrough);
    ("differential self-comparison silent", `Quick, test_differential_self_silent);
    ("register mangling caught", `Slow, test_register_mangle_caught);
    ("decoder garbage caught", `Slow, test_decoder_garbage_caught);
    ( "semantic verdict caps confidence",
      `Quick,
      test_semantic_verdict_caps_confidence );
    ("Err-PS queue order", `Quick, test_errps_queue_order);
    ("diagnostic dedupe + stable order", `Quick, test_dedup_overlapping_spans);
  ]
  @ qcheck_props @ fixpoint_props
