(** Semantic verification entry points.

    Runs the abstract-interpretation domains over BackendC functions
    (constant/interval values, path-sensitive initialization) and, when
    a reference implementation is available, the differential summary
    comparator; over a whole target it additionally compiles the
    regression workloads through the reference backend and checks the
    emitted machine code's calling-convention discipline. Every finding
    is a [Sem]-class {!Vega_analysis.Diagnostic} (VS rules) that the
    taxonomy maps to the Err-PS review bucket: a semantic diagnostic is
    a reason for a human to look, never a proof of equivalence the
    other way around. *)

module A = Vega_srclang.Ast
module D = Vega_analysis.Diagnostic
module C = Vega_corpus.Corpus
module B = Vega_backend
module P = Vega_target.Profile

type func_verdict = { fv_fname : string; fv_diags : D.t list }

type report = {
  v_target : string;
  v_funcs : func_verdict list;
  v_asm : D.t list;  (** calling-convention findings over emitted code *)
}

(* spans are keyed by physical identity, so detached ASTs are
   round-tripped through the canonical printer first (same convention
   as Lint.lint_function) *)
let spanned_of_func (f : A.func) =
  let src = Vega_srclang.Lines.to_source (Vega_srclang.Lines.of_func f) in
  match Vega_srclang.Parser.parse_function_spanned_opt src with
  | Ok sp -> (sp.Vega_srclang.Parser.sp_fn, sp.Vega_srclang.Parser.sp_marks)
  | Error _ -> (f, [])

(** All AST-level domains over one function; the differential summary
    comparator runs when a [reference] is supplied. *)
let verify_func ?reference ~fname (f : A.func) : D.t list =
  let f, marks = spanned_of_func f in
  let value_diags = Interval.check ~fname ~marks f in
  let init_diags = Initdom.check ~fname ~marks f in
  let diff_diags =
    match reference with
    | None -> []
    | Some r ->
        let gen_sum = Summary.summarize ~fname ~marks f in
        let ref_sum = Summary.summarize ~fname:(fname ^ ".ref") r in
        Summary.compare_summaries ~fname gen_sum ref_sum
  in
  D.dedup (value_diags @ init_diags @ diff_diags)

(** Like {!verify_func} over source text; a function that does not
    parse yields the analyzer's VA-P01. *)
let verify_source ?reference ~fname src : D.t list =
  match Vega_srclang.Parser.parse_function_spanned_opt src with
  | Error m ->
      [
        D.make ~rule:"VA-P01" ~cls:D.Parse ~severity:D.Error ~fname
          (Printf.sprintf "function does not parse: %s" m);
      ]
  | Ok { Vega_srclang.Parser.sp_fn; sp_marks } ->
      let value_diags = Interval.check ~fname ~marks:sp_marks sp_fn in
      let init_diags = Initdom.check ~fname ~marks:sp_marks sp_fn in
      let diff_diags =
        match reference with
        | None -> []
        | Some r ->
            let gen_sum = Summary.summarize ~fname ~marks:sp_marks sp_fn in
            let ref_sum = Summary.summarize ~fname:(fname ^ ".ref") r in
            Summary.compare_summaries ~fname gen_sum ref_sum
      in
      D.dedup (value_diags @ init_diags @ diff_diags)

(* the reference backend of a target, as the evaluation harness builds
   it: every interface function's inlined reference as a hook source *)
let conv_for vfs (p : P.t) =
  let sources =
    List.filter_map
      (fun (spec : Vega_corpus.Spec.t) ->
        Option.map
          (fun f -> (spec.Vega_corpus.Spec.fname, f))
          (C.reference_inlined spec p))
      C.all_specs
  in
  let hooks = B.Hooks.create vfs ~target:p.P.name ~sources in
  B.Conv.make vfs hooks

(** Compile the regression workloads through the target's reference
    backend and check the emitted assembly's register discipline. *)
let verify_asm ?(opt_levels = [ B.Compiler.O0; B.Compiler.O3 ])
    ?(cases = Vega_ir.Programs.regression) vfs (p : P.t) : D.t list =
  let conv = conv_for vfs p in
  let callee_saved = p.P.regs.P.callee_saved in
  List.concat_map
    (fun (case : Vega_ir.Programs.case) ->
      List.concat_map
        (fun opt ->
          let out =
            B.Compiler.compile conv ~opt (Vega_ir.Programs.modul_of case)
          in
          List.map
            (fun (d : D.t) ->
              {
                d with
                D.msg =
                  Printf.sprintf "%s [%s -%s]" d.D.msg case.Vega_ir.Programs.name
                    (match opt with B.Compiler.O0 -> "O0" | B.Compiler.O3 -> "O3");
              })
            (Regdom.check_asm conv ~callee_saved out.B.Compiler.asm))
        opt_levels)
    cases

(** Verify every reference implementation of a target (each compared
    against itself, which exercises the comparator and must stay
    silent), plus the emitted-code discipline when [asm] is set. *)
let verify_target ?(asm = true) vfs (p : P.t) : report =
  let funcs =
    List.filter_map
      (fun (spec : Vega_corpus.Spec.t) ->
        match C.reference_inlined spec p with
        | None -> None
        | Some f ->
            let fname = spec.Vega_corpus.Spec.fname in
            Some
              { fv_fname = fname; fv_diags = verify_func ~reference:f ~fname f })
      C.all_specs
  in
  let v_asm = if asm then verify_asm vfs p else [] in
  { v_target = p.P.name; v_funcs = funcs; v_asm }

(** Semantic errors in a diagnostic list — the count
    {!Vega.Generate.apply_verdict} folds into the confidence. *)
let sem_errors ds =
  List.length
    (List.filter (fun (d : D.t) -> d.D.cls = D.Sem && D.is_error d) ds)

let report_diags r = List.concat_map (fun fv -> fv.fv_diags) r.v_funcs @ r.v_asm
let diag_count r = List.length (report_diags r)
