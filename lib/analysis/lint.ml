(** Analyzer entry points.

    The analyzer validates BackendC interface functions without running
    them: pass 1 (parse/shape, {!Shape}), pass 2 (symbol resolution),
    pass 3 (dataflow lint) and pass 4 (interface conformance)
    ({!Checks}). It runs over reference backends (which must come back
    clean), over generated functions before pass@1, and behind
    [vega-cli lint]. *)

module C = Vega_corpus.Corpus
module D = Diagnostic
module Lines = Vega_srclang.Lines
module Parser = Vega_srclang.Parser

type func_report = { fr_fname : string; fr_diags : D.t list }

type report = { r_target : string; r_funcs : func_report list }

let symtab vfs (p : Vega_target.Profile.t) =
  Symtab.build vfs ~target:p.Vega_target.Profile.name

(** Passes 2–4 over source text, with diagnostics anchored to its
    lines/columns. A parse failure yields a single VA-P01. *)
let lint_source tab ?spec ~fname src =
  match Parser.parse_function_spanned_opt src with
  | Error m ->
      [
        D.make ~rule:"VA-P01" ~cls:D.Parse ~severity:D.Error ~fname
          (Printf.sprintf "function does not parse: %s" m);
      ]
  | Ok { Parser.sp_fn; sp_marks } ->
      D.dedup (Checks.check_function tab ?spec ~marks:sp_marks sp_fn)

(** Passes 2–4 over an already-parsed function. Spans are recovered by
    printing the function in canonical form and re-parsing, so reported
    positions refer to {!Vega_srclang.Lines.to_source} of the function. *)
let lint_function tab ?spec (f : Vega_srclang.Ast.func) =
  let src = Lines.to_source (Lines.of_func f) in
  lint_source tab ?spec ~fname:f.Vega_srclang.Ast.name src

(** All four passes over a generated function (pass 1 needs the template
    it was generated from). *)
let lint_generated tab (tpl : Vega.Template.t) (gf : Vega.Generate.gen_func) =
  let shape, parsed = Shape.check tpl gf in
  let deep =
    match parsed with
    | None -> []
    | Some { Parser.sp_fn; sp_marks } ->
        let spec = C.find_spec gf.Vega.Generate.gf_fname in
        Checks.check_function tab ?spec ~marks:sp_marks sp_fn
  in
  D.dedup (shape @ deep)

(** Lint every reference implementation of a target's backend. The
    acceptance bar for the reference corpus is an empty report. *)
let lint_target vfs (p : Vega_target.Profile.t) =
  let tab = symtab vfs p in
  let funcs =
    List.filter_map
      (fun (spec : Vega_corpus.Spec.t) ->
        match C.reference_inlined spec p with
        | None -> None
        | Some f ->
            Some
              {
                fr_fname = spec.Vega_corpus.Spec.fname;
                fr_diags = lint_function tab ~spec f;
              })
      C.all_specs
  in
  { r_target = p.Vega_target.Profile.name; r_funcs = funcs }

let report_diags r = List.concat_map (fun fr -> fr.fr_diags) r.r_funcs
let error_count r = List.length (List.filter D.is_error (report_diags r))
let diag_count r = List.length (report_diags r)
