(** Target-Specific Code Generation (Sec. 3.4): assemble a complete
    function for a new target from its feature vectors and a decoder
    (CodeBE, or the retrieval baseline for the model ablation).

    The confidence score of the whole function is its first statement's
    (the function definition's) score, as in the paper. *)

type decoder = Featrep.fv -> string list * float array
(** Maps an input FV to output tokens plus per-token probabilities. *)

type gen_stmt = {
  g_col : int;
  g_line : int;
  g_inst : int;
  g_score : float;
  g_tokens : string list;  (** decoded tokens, copy references resolved *)
  g_shape_ok : bool;
      (** tokens instantiate this slot's statement template (static
          shape signal consumed by the analyzer and the metrics) *)
  g_level : Vega_robust.Degrade.level;
      (** provenance: the degradation-ladder rung that produced the
          statement; anything below [Primary] had its confidence capped
          by {!Vega_robust.Degrade.cap} *)
}

type gen_func = {
  gf_fname : string;
  gf_module : Vega_target.Module_id.t;
  gf_target : string;
  gf_confidence : float;
  gf_stmts : gen_stmt list;  (** stream order; includes sub-threshold ones *)
}

type stepper
(** An in-flight incremental generation: the same pipeline as {!run}
    suspended between statements, so a serving loop can interleave many
    decodes and observe each statement as it is produced. *)

type step =
  | Step_stmt of gen_stmt  (** one more statement was produced *)
  | Step_done of gen_func  (** the function is complete (idempotent) *)

val start :
  ?fallback:decoder ->
  ?report:Vega_robust.Report.t ->
  ?sup:Vega_robust.Supervisor.t ->
  ?on_stmt:(gen_stmt -> unit) ->
  Featsel.context ->
  Template.t ->
  Featsel.t ->
  Resolve.hints ->
  target:string ->
  decoder:decoder ->
  stepper
(** Resolve feature vectors, arm the supervisor deadline and return a
    stepper positioned before the first statement. Nothing is decoded
    yet. *)

val step : stepper -> step
(** Advance by exactly one statement (or finalize). With [sup]
    attached, {!Vega_robust.Supervisor.check_cancel} runs at the top of
    every statement boundary: a set cancel token raises
    [Fault (Cancelled _)] before any work for that statement, leaving
    the emitted prefix intact. After [Step_done], further calls return
    the same [Step_done]. *)

val fname : stepper -> string

val run :
  ?fallback:decoder ->
  ?report:Vega_robust.Report.t ->
  ?sup:Vega_robust.Supervisor.t ->
  ?on_stmt:(gen_stmt -> unit) ->
  Featsel.context ->
  Template.t ->
  Featsel.t ->
  Resolve.hints ->
  target:string ->
  decoder:decoder ->
  gen_func
(** A failing statement never aborts the function: generation walks the
    degradation ladder (retry once, [fallback] decoder, template-default
    render, omit-with-flag), capping confidence per rung and recording
    faults and degradations in [report] when given.

    With [sup], the function is bracketed by
    {!Vega_robust.Supervisor.start_function}/[end_function] and the
    primary decoder runs under {!Vega_robust.Supervisor.guard}
    (deadline, backoff retries, circuit breaker); supervision faults
    degrade statements through the same ladder instead of aborting.
    [on_stmt] fires once per produced statement, outside stage
    isolation, in stream order — the write-ahead-journal hook. *)

val apply_verdict : gen_func -> sem_errors:int -> gen_func
(** Fold a semantic verifier verdict into [gf_confidence] via
    {!Confidence.apply_semantic_verdict}: any semantic error caps the
    function below the accept threshold so it enqueues for Err-PS
    review; [sem_errors = 0] is the identity. *)

val kept_stmts : gen_func -> gen_stmt list
(** Statements at or above the 0.5 confidence threshold (what pass@1
    evaluates after the paper's removal step). *)

val source_of : gen_func -> string
(** Parseable source text of the kept statements. *)

val source_of_all : gen_func -> string
(** Source text keeping sub-threshold statements too (for inspection). *)
