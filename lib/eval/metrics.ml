module C = Vega_corpus.Corpus
module Lines = Vega_srclang.Lines
module M = Vega_target.Module_id

type fn_eval = {
  fe_fname : string;
  fe_module : M.t;
  fe_confidence : float;
  fe_pass : bool;
  fe_failure : string option;
  fe_acc_stmts : int;
  fe_ref_stmts : int;
  fe_gen_stmts : int;
  fe_multi_source : bool;
  fe_err_v : bool;
  fe_err_cs : bool;
  fe_err_def : bool;
  fe_diags : Vega_analysis.Diagnostic.t list;
      (** static-analyzer findings on the generated function *)
  fe_sem : int;  (** semantic-verifier errors (Sem class) among fe_diags *)
  fe_shape_bad : int;  (** kept statements failing the template shape check *)
  fe_degraded : int;
  fe_omitted : int;
  fe_timeout : bool;
}

type target_eval = {
  te_target : string;
  te_fns : fn_eval list;
  te_gen_seconds : float;
  te_module_seconds : (M.t * float) list;
  te_faults : (Vega_robust.Fault.cls * int) list;
  te_degraded : (Vega_robust.Degrade.level * int) list;
  te_resumed : int;
  te_retried : int;
  te_breaker_open : int;
}

let canon_lines (f : Vega_srclang.Ast.func) =
  List.map (fun (l : Lines.t) -> Lines.tokens_of l) (Lines.of_func f)

let line_kinds (f : Vega_srclang.Ast.func) =
  List.map (fun (l : Lines.t) -> Lines.kind_name l.Lines.kind) (Lines.of_func f)

(* align generated token lines against reference token lines and count
   exact matches (statements needing no manual change) *)
let aligned_matches gen_lines ref_lines =
  let to_arr lines = Array.of_list (List.map (fun t -> ("l", t)) lines) in
  let slots = Vega_gumtree.Stmt_align.align (to_arr gen_lines) (to_arr ref_lines) in
  List.fold_left
    (fun (exact, near) { Vega_gumtree.Stmt_align.left; right } ->
      match (left, right) with
      | Some i, Some j ->
          let g = List.nth gen_lines i and r = List.nth ref_lines j in
          if g = r then (exact + 1, near)
          else
            let sim =
              Vega_util.Lcs.similarity ~eq:String.equal (Array.of_list g)
                (Array.of_list r)
            in
            if sim >= 0.6 then (exact, near + 1) else (exact, near)
      | _ -> (exact, near))
    (0, 0) slots

(* multi-source attribution over training implementations of the spec *)
let multi_source prep (spec : Vega_corpus.Spec.t) gen_lines =
  let impl_lines =
    List.filter_map
      (fun (p : Vega_target.Profile.t) ->
        Option.map
          (fun f -> (p.Vega_target.Profile.name, canon_lines f))
          (C.reference_inlined spec p))
      Vega_target.Registry.training
  in
  ignore prep;
  let similar a b =
    a = b
    || Vega_util.Lcs.similarity ~eq:String.equal (Array.of_list a)
         (Array.of_list b)
       >= 0.85
  in
  let attribution line =
    List.filter_map
      (fun (t, lines) ->
        if List.exists (fun l -> similar line l) lines then Some t else None)
      impl_lines
  in
  let sets = List.map attribution gen_lines in
  let sets = List.filter (fun s -> s <> []) sets in
  match sets with
  | [] -> false
  | first :: rest ->
      let inter =
        List.fold_left
          (fun acc s -> List.filter (fun t -> List.mem t s) acc)
          first rest
      in
      inter = []

let eval_generated prep vfs (p : Vega_target.Profile.t) reference
    (spec : Vega_corpus.Spec.t) ~tab ~tpl (gf : Vega.Generate.gen_func) ~cases
    =
  let kept = Vega.Generate.kept_stmts gf in
  let diags = Vega_analysis.Lint.lint_generated tab tpl gf in
  let shape_bad =
    List.length
      (List.filter
         (fun (s : Vega.Generate.gen_stmt) -> not s.Vega.Generate.g_shape_ok)
         kept)
  in
  let gen_lines =
    List.map (fun (s : Vega.Generate.gen_stmt) -> s.Vega.Generate.g_tokens) kept
  in
  let dropped =
    List.filter
      (fun (s : Vega.Generate.gen_stmt) ->
        s.Vega.Generate.g_score < Vega.Confidence.threshold)
      gf.Vega.Generate.gf_stmts
  in
  let source = Vega.Generate.source_of gf in
  let parsed = Vega_srclang.Parser.parse_function_opt source in
  let ref_func = C.reference_inlined spec p in
  let ref_lines, ref_kinds =
    match ref_func with
    | Some f -> (canon_lines f, line_kinds f)
    | None -> ([], [])
  in
  ignore ref_kinds;
  (* semantic verdict: run the abstract-interpretation verifier on the
     kept source (differential against the reference when we have one)
     and fold any semantic error into the function's confidence so it
     lands in the Err-PS review queue *)
  let sem_diags =
    match parsed with
    | Error _ -> []
    | Ok _ ->
        Vega_absint.Verify.verify_source ?reference:ref_func
          ~fname:spec.Vega_corpus.Spec.fname source
  in
  let sem_errors = Vega_absint.Verify.sem_errors sem_diags in
  let gf = Vega.Generate.apply_verdict gf ~sem_errors in
  let pass_result =
    match parsed with
    | Error m -> Error { Regression.f_case = "<parse>"; f_reason = m }
    | Ok f ->
        Regression.pass1 vfs p ~reference ~fname:spec.Vega_corpus.Spec.fname
          ~replacement:(Some f) ~cases ()
  in
  let pass = pass_result = Ok () in
  let exact, near = aligned_matches gen_lines ref_lines in
  let acc_stmts = if pass then List.length gen_lines else exact in
  let err_def =
    (match parsed with Error _ -> true | Ok _ -> false)
    || List.length gen_lines < List.length ref_lines
  in
  let err_v = (not pass) && near > 0 in
  (* Err-CS: the confidence score contradicts correctness — a statement
     confidently dropped (score < 0.5) that the reference contains *)
  let err_cs =
    List.exists
      (fun (s : Vega.Generate.gen_stmt) ->
        List.mem s.Vega.Generate.g_tokens ref_lines)
      dropped
  in
  {
    fe_fname = spec.Vega_corpus.Spec.fname;
    fe_module = spec.Vega_corpus.Spec.module_;
    fe_confidence = gf.Vega.Generate.gf_confidence;
    fe_pass = pass;
    fe_failure =
      (match pass_result with
      | Ok () -> None
      | Error f -> Some (Printf.sprintf "%s: %s" f.Regression.f_case f.Regression.f_reason));
    fe_acc_stmts = acc_stmts;
    fe_ref_stmts = List.length ref_lines;
    fe_gen_stmts = List.length gen_lines;
    fe_multi_source = pass && multi_source prep spec gen_lines;
    fe_err_v = (not pass) && err_v;
    fe_err_cs = (not pass) && err_cs;
    fe_err_def = (not pass) && err_def;
    fe_diags = Vega_analysis.Diagnostic.dedup (diags @ sem_diags);
    fe_sem = sem_errors;
    fe_shape_bad = shape_bad;
    fe_degraded =
      List.length
        (List.filter
           (fun (s : Vega.Generate.gen_stmt) ->
             s.Vega.Generate.g_level <> Vega_robust.Degrade.Primary)
           gf.Vega.Generate.gf_stmts);
    fe_omitted =
      List.length
        (List.filter
           (fun (s : Vega.Generate.gen_stmt) ->
             s.Vega.Generate.g_level = Vega_robust.Degrade.Omitted)
           gf.Vega.Generate.gf_stmts);
    fe_timeout =
      (match pass_result with Ok () -> false | Error f -> Regression.is_timeout f);
  }

let evaluate_target ?fallback ?report ?sup (t : Vega.Pipeline.t) ~decoder
    (p : Vega_target.Profile.t) ?(cases = Regression.default_cases) () =
  let report =
    match report with Some r -> r | None -> Vega_robust.Report.create ()
  in
  let vfs = t.Vega.Pipeline.prep.Vega.Pipeline.corpus.C.vfs in
  let reference = Regression.reference_artifacts vfs p ~cases () in
  let tab = Vega_analysis.Lint.symtab vfs p in
  (* generation timing per module (Fig. 7) *)
  let module_times = Hashtbl.create 8 in
  let total_time = ref 0.0 in
  let fns =
    List.filter_map
      (fun (b : Vega.Pipeline.bundle) ->
        let spec = b.Vega.Pipeline.spec in
        if not (spec.Vega_corpus.Spec.applies p) then None
        else begin
          let gf, dt =
            Vega_util.Timer.time (fun () ->
                Vega.Generate.run ?fallback ~report ?sup
                  t.Vega.Pipeline.prep.Vega.Pipeline.ctx
                  b.Vega.Pipeline.tpl b.Vega.Pipeline.analysis
                  b.Vega.Pipeline.hints ~target:p.Vega_target.Profile.name
                  ~decoder)
          in
          total_time := !total_time +. dt;
          Hashtbl.replace module_times spec.Vega_corpus.Spec.module_
            (dt
            +. Option.value ~default:0.0
                 (Hashtbl.find_opt module_times spec.Vega_corpus.Spec.module_));
          Some
            (eval_generated t.Vega.Pipeline.prep vfs p reference spec ~tab
               ~tpl:b.Vega.Pipeline.tpl gf ~cases)
        end)
      t.Vega.Pipeline.prep.Vega.Pipeline.bundles
  in
  {
    te_target = p.Vega_target.Profile.name;
    te_fns = fns;
    te_gen_seconds = !total_time;
    te_module_seconds =
      List.filter_map
        (fun m -> Option.map (fun s -> (m, s)) (Hashtbl.find_opt module_times m))
        M.all;
    te_faults = Vega_robust.Report.by_class report;
    te_degraded = Vega_robust.Report.by_level report;
    te_resumed = 0;
    te_retried =
      (match sup with
      | Some s -> (Vega_robust.Supervisor.stats s).sup_retried
      | None -> 0);
    te_breaker_open =
      (match sup with
      | Some s -> (Vega_robust.Supervisor.stats s).sup_breaker_skips
      | None -> 0);
  }

let evaluate_forkflow (prep : Vega.Pipeline.prepared) (p : Vega_target.Profile.t)
    ?(cases = Regression.default_cases) () =
  let vfs = prep.Vega.Pipeline.corpus.C.vfs in
  let reference = Regression.reference_artifacts vfs p ~cases () in
  let tab = Vega_analysis.Lint.symtab vfs p in
  let forked = Vega.Forkflow.fork_backend ~dst:p in
  let fns =
    List.filter_map
      (fun ((spec : Vega_corpus.Spec.t), f) ->
        if not (spec.Vega_corpus.Spec.applies p) then None
        else begin
          let pass_result =
            Regression.pass1 vfs p ~reference ~fname:spec.Vega_corpus.Spec.fname
              ~replacement:(Some f) ~cases ()
          in
          let pass = pass_result = Ok () in
          let gen_lines = canon_lines f in
          let ref_lines =
            match C.reference_inlined spec p with
            | Some rf -> canon_lines rf
            | None -> []
          in
          let exact, _ = aligned_matches gen_lines ref_lines in
          Some
            {
              fe_fname = spec.Vega_corpus.Spec.fname;
              fe_module = spec.Vega_corpus.Spec.module_;
              fe_confidence = 1.0;
              fe_pass = pass;
              fe_failure = None;
              fe_acc_stmts = (if pass then List.length gen_lines else exact);
              fe_ref_stmts = List.length ref_lines;
              fe_gen_stmts = List.length gen_lines;
              fe_multi_source = false;
              fe_err_v = false;
              fe_err_cs = false;
              fe_err_def = false;
              fe_diags = Vega_analysis.Lint.lint_function tab ~spec f;
              fe_sem = 0;
              fe_shape_bad = 0;
              fe_degraded = 0;
              fe_omitted = 0;
              fe_timeout =
                (match pass_result with
                | Ok () -> false
                | Error fl -> Regression.is_timeout fl);
            }
        end)
      forked
  in
  {
    te_target = p.Vega_target.Profile.name;
    te_fns = fns;
    te_gen_seconds = 0.0;
    te_module_seconds = [];
    te_faults = [];
    te_degraded = [];
    te_resumed = 0;
    te_retried = 0;
    te_breaker_open = 0;
  }

(* ------------------------------------------------------------------ *)
(* Aggregation                                                          *)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let fn_accuracy fns =
  ratio (List.length (List.filter (fun f -> f.fe_pass) fns)) (List.length fns)

let stmt_accuracy fns =
  let acc = List.fold_left (fun a f -> a + f.fe_acc_stmts) 0 fns in
  let total = List.fold_left (fun a f -> a + max f.fe_ref_stmts f.fe_gen_stmts) 0 fns in
  ratio acc total

let by_module te =
  List.filter_map
    (fun m ->
      match List.filter (fun f -> f.fe_module = m) te.te_fns with
      | [] -> None
      | fns -> Some (m, fns))
    M.all

let acc_by_module te = List.map (fun (m, fns) -> (m, fn_accuracy fns)) (by_module te)

let err_rates fns =
  let n = List.length fns in
  ( ratio (List.length (List.filter (fun f -> f.fe_err_v) fns)) n,
    ratio (List.length (List.filter (fun f -> f.fe_err_cs) fns)) n,
    ratio (List.length (List.filter (fun f -> f.fe_err_def) fns)) n )

let conf1_share fns =
  let acc = List.filter (fun f -> f.fe_pass) fns in
  ratio
    (List.length (List.filter (fun f -> f.fe_confidence > 0.99) acc))
    (List.length acc)

let multi_source_share fns =
  ratio (List.length (List.filter (fun f -> f.fe_multi_source) fns)) (List.length fns)

(* ------------------------------------------------------------------ *)
(* Static-analysis correlation: how much of pass@1 failure the analyzer
   predicts without running anything                                     *)

let failures fns = List.filter (fun f -> not f.fe_pass) fns
let flagged f = f.fe_diags <> []

let static_flag_rate fns =
  let fl = failures fns in
  ratio (List.length (List.filter flagged fl)) (List.length fl)

let static_flag_by_class fns =
  let fl = failures fns in
  List.map
    (fun c ->
      let hit f =
        List.exists (fun (d : Vega_analysis.Diagnostic.t) -> d.cls = c) f.fe_diags
      in
      (c, ratio (List.length (List.filter hit fl)) (List.length fl)))
    Vega_analysis.Diagnostic.[ Parse; Symbol; Dataflow; Interface; Sem ]

let static_false_alarm_rate fns =
  let ok = List.filter (fun f -> f.fe_pass) fns in
  ratio (List.length (List.filter flagged ok)) (List.length ok)

(* ------------------------------------------------------------------ *)
(* Semantic-verdict correlation: the abstract-interpretation verifier's
   share of pass@1 failure, and its false-alarm rate on passes           *)

let sem_flagged f = f.fe_sem > 0

let sem_flag_rate fns =
  let fl = failures fns in
  ratio (List.length (List.filter sem_flagged fl)) (List.length fl)

let sem_false_alarm_rate fns =
  let ok = List.filter (fun f -> f.fe_pass) fns in
  ratio (List.length (List.filter sem_flagged ok)) (List.length ok)

let sem_error_count fns = List.fold_left (fun a f -> a + f.fe_sem) 0 fns

(** Mean confidence of statically-flagged vs clean functions; a working
    confidence score should be lower on flagged ones. *)
let confidence_by_flag fns =
  let mean l =
    match l with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun a f -> a +. f.fe_confidence) 0.0 l
        /. float_of_int (List.length l)
  in
  let yes, no = List.partition flagged fns in
  (mean yes, mean no)

(** Among statically-flagged failures, share where some diagnostic's
    Table 2 bucket agrees with the dynamically-assigned taxonomy. *)
let taxonomy_agreement fns =
  let fl = List.filter flagged (failures fns) in
  let dynamic f =
    (if f.fe_err_v then [ "Err-V" ] else [])
    @ (if f.fe_err_cs then [ "Err-CS" ] else [])
    @ if f.fe_err_def then [ "Err-Def" ] else []
  in
  let agrees f =
    let dyn = dynamic f in
    List.exists
      (fun d -> List.mem (Vega_analysis.Diagnostic.taxonomy d) dyn)
      f.fe_diags
  in
  ratio (List.length (List.filter agrees fl)) (List.length fl)
