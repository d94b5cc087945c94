(** Per-function evaluation: pass@1, statement-level accuracy, the error
    taxonomy of Table 2, and multi-source attribution (purple bars of
    Fig. 8). Also evaluates ForkFlow baselines with the same machinery. *)

type fn_eval = {
  fe_fname : string;
  fe_module : Vega_target.Module_id.t;
  fe_confidence : float;
  fe_pass : bool;  (** pass@1 *)
  fe_failure : string option;
  fe_acc_stmts : int;  (** statements needing no manual change *)
  fe_ref_stmts : int;  (** statements of the reference implementation *)
  fe_gen_stmts : int;  (** statements generated (kept) *)
  fe_multi_source : bool;
      (** no single training backend explains every generated statement *)
  fe_err_v : bool;
  fe_err_cs : bool;
  fe_err_def : bool;
  fe_diags : Vega_analysis.Diagnostic.t list;
      (** static-analyzer findings on the generated function, including
          the semantic verifier's (deduped, span-then-rule order) *)
  fe_sem : int;
      (** semantic-verifier errors ([Sem]-class, Err-PS bucket); when
          non-zero the confidence was capped by
          {!Vega.Generate.apply_verdict} *)
  fe_shape_bad : int;  (** kept statements failing the template shape check *)
  fe_degraded : int;
      (** statements produced below the primary degradation rung *)
  fe_omitted : int;  (** statements omitted-with-flag *)
  fe_timeout : bool;
      (** pass@1 failed on fuel exhaustion rather than wrong code *)
}

type target_eval = {
  te_target : string;
  te_fns : fn_eval list;
  te_gen_seconds : float;  (** wall-clock of the generation stage (Fig. 7) *)
  te_module_seconds : (Vega_target.Module_id.t * float) list;
  te_faults : (Vega_robust.Fault.cls * int) list;
      (** faults observed while generating, by class (non-zero only) *)
  te_degraded : (Vega_robust.Degrade.level * int) list;
      (** degraded statements by ladder rung (non-zero only) *)
  te_resumed : int;
      (** functions restored from a write-ahead journal rather than
          generated (always 0 outside durable runs) *)
  te_retried : int;  (** supervisor backoff retries of the decoder *)
  te_breaker_open : int;
      (** decoder calls short-circuited by an open circuit breaker *)
}

val evaluate_target :
  ?fallback:Vega.Generate.decoder ->
  ?report:Vega_robust.Report.t ->
  ?sup:Vega_robust.Supervisor.t ->
  Vega.Pipeline.t ->
  decoder:Vega.Generate.decoder ->
  Vega_target.Profile.t ->
  ?cases:Vega_ir.Programs.case list ->
  unit ->
  target_eval
(** Generate the whole backend for a held-out target and pass@1-check
    every function. Generation runs under the degradation ladder —
    supervised (deadlines, backoff, circuit breaker) when [sup] is
    given; observed faults and degradations land in [report] (a fresh
    one when omitted) and in the [te_faults]/[te_degraded]/[te_retried]/
    [te_breaker_open] counters. *)

val evaluate_forkflow :
  Vega.Pipeline.prepared ->
  Vega_target.Profile.t ->
  ?cases:Vega_ir.Programs.case list ->
  unit ->
  target_eval
(** The ForkFlow baseline through the same harness. *)

(** {1 Aggregation} *)

val fn_accuracy : fn_eval list -> float
val stmt_accuracy : fn_eval list -> float
val by_module : target_eval -> (Vega_target.Module_id.t * fn_eval list) list
val acc_by_module : target_eval -> (Vega_target.Module_id.t * float) list
val err_rates : fn_eval list -> float * float * float
(** (Err-V, Err-CS, Err-Def) rates over all functions. *)

val conf1_share : fn_eval list -> float
(** Among accurate functions, share with confidence > 0.99 (Fig. 8). *)

val multi_source_share : fn_eval list -> float

(** {1 Static-analysis correlation} *)

val static_flag_rate : fn_eval list -> float
(** Fraction of pass@1 failures that carry at least one static
    diagnostic. *)

val static_flag_by_class : fn_eval list -> (Vega_analysis.Diagnostic.cls * float) list
(** {!static_flag_rate} broken out per analyzer pass. *)

val static_false_alarm_rate : fn_eval list -> float
(** Fraction of pass@1 successes that the analyzer flags anyway. *)

(** {1 Semantic-verdict correlation} *)

val sem_flag_rate : fn_eval list -> float
(** Fraction of pass@1 failures with at least one semantic-verifier
    error (the abstract-interpretation domains or the differential
    summary comparator). *)

val sem_false_alarm_rate : fn_eval list -> float
(** Fraction of pass@1 successes carrying a semantic error — the
    verifier's empirical false-positive rate on this run. *)

val sem_error_count : fn_eval list -> int
(** Total semantic-verifier errors over the functions. *)

val confidence_by_flag : fn_eval list -> float * float
(** (mean confidence of flagged functions, mean of clean ones). *)

val taxonomy_agreement : fn_eval list -> float
(** Among flagged failures, share where a static diagnostic's Table 2
    bucket matches the dynamic classification. *)
