module Fault = Vega_robust.Fault
module Degrade = Vega_robust.Degrade
module Stage = Vega_robust.Stage
module Report = Vega_robust.Report

type decoder = Featrep.fv -> string list * float array

type gen_stmt = {
  g_col : int;
  g_line : int;
  g_inst : int;
  g_score : float;
  g_tokens : string list;
  g_shape_ok : bool;
      (** the emitted tokens instantiate the statement template of this
          slot — the static shape signal {!Vega_analysis} pass 1 and the
          evaluation harness correlate with confidence *)
  g_level : Degrade.level;
      (** provenance: which rung of the degradation ladder produced the
          statement ([Primary] on the happy path) *)
}

type gen_func = {
  gf_fname : string;
  gf_module : Vega_target.Module_id.t;
  gf_target : string;
  gf_confidence : float;
  gf_stmts : gen_stmt list;
}

let omitted_stmt (fv : Featrep.fv) =
  {
    g_col = fv.Featrep.col;
    g_line = fv.Featrep.line;
    g_inst = fv.Featrep.inst;
    g_score = 0.0;
    g_tokens = [];
    g_shape_ok = false;
    g_level = Degrade.Omitted;
  }

type step = Step_stmt of gen_stmt | Step_done of gen_func

type stepper = {
  sp_fname : string;
  sp_tpl : Template.t;
  sp_target : string;
  sp_sup : Vega_robust.Supervisor.t option;
  sp_report : Report.t option;
  sp_on_stmt : (gen_stmt -> unit) option;
  sp_gen_one : Featrep.fv * Resolve.inst_values -> gen_stmt;
  mutable sp_remaining : (Featrep.fv * Resolve.inst_values) list;
  mutable sp_index : int;
  mutable sp_acc : gen_stmt list;  (* reversed stream order *)
  mutable sp_finished : gen_func option;
}

let start ?fallback ?report ?sup ?on_stmt ctx (tpl : Template.t) analysis hints
    ~target ~decoder =
  let view = Featsel.view_for_new_target ctx tpl analysis target in
  let fvs = Featrep.generation_fvs analysis tpl hints view in
  let fname = tpl.Template.fname in
  (* under supervision the model decoder runs guarded: per-function
     deadline, bounded backoff on retryable faults, and the circuit
     breaker; a deadline or open breaker surfaces as a Fault that the
     ladder turns into a fallback-rung statement *)
  let decoder =
    match sup with
    | None -> decoder
    | Some s -> fun fv -> Vega_robust.Supervisor.guard s (fun () -> decoder fv)
  in
  Option.iter (fun s -> Vega_robust.Supervisor.start_function s fname) sup;
  (* One decode attempt at a given rung. Stage isolation converts any
     escaping exception into a recorded fault; non-finite probabilities
     are a fault of their own (they would poison the confidence). *)
  let attempt level d (fv : Featrep.fv) =
    match
      Stage.protect ?report ~stage:(Degrade.name level) (fun () ->
          let out_tokens, probs = d fv in
          if not (Array.for_all Float.is_finite probs) then
            raise
              (Fault.Fault
                 (Fault.Nan_score
                    {
                      fname;
                      detail =
                        Printf.sprintf
                          "non-finite token probability (col %d line %d inst %d)"
                          fv.Featrep.col fv.Featrep.line fv.Featrep.inst;
                    }));
          (out_tokens, probs))
    with
    | Ok (out_tokens, probs) -> Some (level, out_tokens, probs)
    | Error _ -> None
  in
  let gen_one ((fv : Featrep.fv), (iv : Resolve.inst_values)) =
    let column0 =
      if fv.col = -1 then Template.signature_column tpl
      else Fault.nth ~what:(fname ^ ".columns") tpl.Template.columns fv.col
    in
    let st0 = Fault.nth ~what:(fname ^ ".unit") column0.Template.unit fv.line in
    (* the degradation ladder: primary decode, one retry, retrieval
       fallback, then a deterministic template-default render, finally
       omission with a flag *)
    let ladder =
      match attempt Degrade.Primary decoder fv with
      | Some a -> Some a
      | None -> (
          match attempt Degrade.Retry decoder fv with
          | Some a -> Some a
          | None -> (
              match fallback with
              | Some fb -> attempt Degrade.Retrieval_fallback fb fv
              | None -> None))
    in
    let level, score_opt, body, probs =
      match ladder with
      | Some (level, out_tokens, probs) ->
          let score_opt, body =
            Featrep.decode_output ~registers:fv.registers ~inst:fv.inst out_tokens
          in
          (level, score_opt, body, probs)
      | None -> (
          match
            Featrep.render_line analysis column0 ~col:fv.col ~line:fv.line iv st0
          with
          | Some rendered -> (Degrade.Template_default, None, rendered, [||])
          | None -> (Degrade.Omitted, None, [], [||]))
    in
    (* the paper's Eq. (1): has(S_k) estimated from the independent
       properties, N(SV) from the target's candidate sets; the model's
       own score token only ever lowers it *)
    let has =
      fv.col = -1 || Resolve.presence_estimate analysis tpl column0 view
    in
    let eq1 =
      Confidence.statement_score
        ~slot_candidates:
          (Confidence.slot_candidate_counts analysis view ~col:fv.col
             ~line:fv.line st0)
        st0 ~present:has
    in
    let model_score =
      match score_opt with Some s -> s | None -> Codebe.mean_token_prob probs
    in
    let score = if has then Confidence.sanitize eq1 else 0.0 in
    let score =
      (* a model that is confident a present statement is absent still
         flags it for review (Err-CS channel) *)
      if has && model_score < 0.25 then Float.min score 0.45 else score
    in
    (* each rung caps the confidence: degraded statements can only ever
       score lower than their primary-path counterparts *)
    let score = Float.min score (Degrade.cap level) in
    (* template-guided repair: a kept statement that does not fit its
       own statement template is re-rendered from the resolved values
       (the generator owns the template, Sec. 3.4) *)
    let column = column0 in
    let st = st0 in
    let slots_well_formed slots =
      (* every slot's word count must agree with its pattern arity *)
      List.for_all2
        (fun toks si ->
          match Featsel.pattern analysis ~col:fv.col ~line:fv.line ~slot:si with
          | Some pat -> List.length toks = List.length pat
          | None -> true)
        slots
        (List.init st.Template.nslots Fun.id)
    in
    let body =
      if score < Confidence.threshold then body
      else
        match Template.match_instance st body with
        | Some slots when slots_well_formed slots -> body
        | Some _ | None -> (
            match
              Featrep.render_line analysis column ~col:fv.col ~line:fv.line iv st
            with
            | Some fixed -> fixed
            | None -> body)
    in
    let shape_ok =
      match Template.match_instance st body with
      | Some slots -> slots_well_formed slots
      | None -> false
    in
    {
      g_col = fv.col;
      g_line = fv.line;
      g_inst = fv.inst;
      g_score = score;
      g_tokens = body;
      g_shape_ok = shape_ok;
      g_level = level;
    }
  in
  {
    sp_fname = fname;
    sp_tpl = tpl;
    sp_target = target;
    sp_sup = sup;
    sp_report = report;
    sp_on_stmt = on_stmt;
    sp_gen_one = gen_one;
    sp_remaining = fvs;
    sp_index = 0;
    sp_acc = [];
    sp_finished = None;
  }

let fname sp = sp.sp_fname

let step sp =
  match (sp.sp_finished, sp.sp_remaining) with
  | Some gf, _ -> Step_done gf
  | None, [] ->
      Option.iter Vega_robust.Supervisor.end_function sp.sp_sup;
      let stmts = List.rev sp.sp_acc in
      let confidence =
        Confidence.function_confidence (List.map (fun s -> s.g_score) stmts)
      in
      let gf =
        {
          gf_fname = sp.sp_tpl.Template.fname;
          gf_module = sp.sp_tpl.Template.module_;
          gf_target = sp.sp_target;
          gf_confidence = confidence;
          gf_stmts = stmts;
        }
      in
      sp.sp_finished <- Some gf;
      Step_done gf
  | None, ((fv, _) as pair) :: rest ->
      (* a client cancel aborts here — before any decode work for this
         statement — so the journal holds a clean statement prefix *)
      Option.iter
        (fun s -> Vega_robust.Supervisor.check_cancel ~at_stmt:sp.sp_index s)
        sp.sp_sup;
      let stmt =
        (* a statement can never abort the function: any fault left at
           this point degrades it to an omitted, zero-confidence slot *)
        match
          Stage.protect ?report:sp.sp_report ~stage:"generate" (fun () ->
              sp.sp_gen_one pair)
        with
        | Ok s -> s
        | Error _ -> omitted_stmt fv
      in
      Option.iter
        (fun r ->
          Report.record_degradation r ~fname:sp.sp_fname ~col:stmt.g_col
            ~line:stmt.g_line ~inst:stmt.g_inst stmt.g_level)
        sp.sp_report;
      (* journaling hook: runs outside stage isolation so a simulated
         crash (Journal.Killed) aborts the run like a real one *)
      Option.iter (fun f -> f stmt) sp.sp_on_stmt;
      sp.sp_remaining <- rest;
      sp.sp_index <- sp.sp_index + 1;
      sp.sp_acc <- stmt :: sp.sp_acc;
      Step_stmt stmt

let run ?fallback ?report ?sup ?on_stmt ctx tpl analysis hints ~target ~decoder =
  let sp = start ?fallback ?report ?sup ?on_stmt ctx tpl analysis hints ~target ~decoder in
  let rec drive () =
    match step sp with Step_stmt _ -> drive () | Step_done gf -> gf
  in
  drive ()

(* fold a semantic-verifier verdict into the function's confidence; the
   verifier itself lives above this library (vega.absint), so only the
   error count crosses the boundary *)
let apply_verdict gf ~sem_errors =
  if sem_errors <= 0 then gf
  else
    {
      gf with
      gf_confidence =
        Confidence.apply_semantic_verdict ~sem_errors gf.gf_confidence;
    }

let kept_stmts gf =
  List.filter (fun s -> s.g_score >= Confidence.threshold) gf.gf_stmts

let text_of_stmts stmts =
  String.concat "\n" (List.map (fun s -> String.concat " " s.g_tokens) stmts)

let source_of gf = text_of_stmts (kept_stmts gf)
let source_of_all gf = text_of_stmts gf.gf_stmts
