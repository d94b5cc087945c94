(** End-to-end VEGA pipeline (Fig. 5): corpus pre-processing, Code-Feature
    Mapping (templatization, feature selection, feature representation),
    Model Creation (CodeBE fine-tuning), and Target-Specific Code
    Generation for held-out targets. *)

type bundle = {
  spec : Vega_corpus.Spec.t;
  tpl : Template.t;
  analysis : Featsel.t;
  hints : Resolve.hints;
}

type split = Group_split | Backend_split
(** Training/verification split policy of Sec. 4.1.2: by function within
    each group (default, 75/25) or by whole backend (the ablation that
    costs 11-26% accuracy). *)

type prepared = {
  corpus : Vega_corpus.Corpus.t;
  ctx : Featsel.context;
  bundles : bundle list;
  quarantined : string list;
      (** training targets skipped because their description files are
          corrupt (one [Descfile_corruption] fault per file in
          [prep_report]); their reference implementations are dropped
          too. Held-out targets are never quarantined — generation
          against them degrades through the ladder instead. *)
  prep_report : Vega_robust.Report.t;
      (** corpus-corruption and stage faults observed while preparing;
          empty on a healthy corpus *)
}

type t = {
  prep : prepared;
  codebe : Codebe.t;
  retrieval : Retrieval.t;
  train_pairs : (string list * string list) list;
  verify_pairs : (string list * string list) list;
}

type config = {
  train_cfg : Codebe.train_config;
  max_inst_per_column : int;  (** training subsample of repeated arms *)
  split : split;
  split_seed : int;
  train_fraction : float;  (** 0.75 in the paper *)
}

val default_config : config
val test_config : config
(** Tiny settings for unit/integration tests. *)

val prepare :
  ?report:Vega_robust.Report.t -> ?corpus:Vega_corpus.Corpus.t -> unit -> prepared
(** Stage 1 (Code-Feature Mapping) over the training targets; held-out
    target catalogs are registered for later generation. Corrupted
    implementations (unregistered target, missing leading
    function-definition line, pre-processing crash) are recorded in
    [report] and dropped per-impl — a group is skipped only when no valid
    implementation remains; the run itself never aborts. *)

val bundle_for : prepared -> string -> bundle option
(** Lookup by interface-function name. *)

val train : config -> prepared -> t
(** Stage 2 (Model Creation): build FVs once per bundle, split, fine-tune
    CodeBE, and fit the retrieval baseline on the {e train} side of the
    split only — verification outputs never enter the index. *)

val verification_exact_match : t -> float
(** Exact Match on the verification set (paper: 99.03%). *)

val model_decoder : t -> Generate.decoder
(** The fine-tuned model as a decoder: each call decodes one request
    on the calling domain, bit-identical to the full re-decode
    reference. Calls share nothing but the read-only weights, so a
    daemon's decode slots, stepped on their own domains, run it
    concurrently. *)

val retrieval_decoder : t -> Generate.decoder

val generate_backend :
  ?fallback:Generate.decoder ->
  ?report:Vega_robust.Report.t ->
  ?sup:Vega_robust.Supervisor.t ->
  ?domains:int ->
  t -> target:string -> decoder:Generate.decoder -> Generate.gen_func list
(** Stage 3: generate every interface function for a new target.
    [fallback], [report] and [sup] (deadlines, backoff, circuit breaker)
    thread through to {!Generate.run}'s degradation ladder.

    [domains] (default 1) fans the independent functions out over a
    fixed-size domain pool. Results stay in bundle order and are
    bit-identical to the sequential path; [sup] is forked per worker
    (stats folded back after the join) and [report] recording is
    mutex-guarded. *)

val generate_function :
  ?fallback:Generate.decoder ->
  ?report:Vega_robust.Report.t ->
  ?sup:Vega_robust.Supervisor.t ->
  t -> target:string -> decoder:Generate.decoder -> fname:string ->
  Generate.gen_func option

(** {1 Crash-safe durable generation}

    A durable run write-ahead-journals every statement before acting on
    it; the journal is all its run directory holds. After a crash it
    resumes by replaying the journal and produces output bit-identical
    to an uninterrupted run. *)

val fnames : t -> string list
(** The interface functions a backend consists of, in bundle order. *)

val fingerprint : t -> target:string -> string
(** Checksum over the target name and the prepared function set; stored
    in the journal header so resume refuses a mismatched run dir. *)

type durable_outcome = {
  d_funcs : Generate.gen_func list;  (** bundle order, like
      {!generate_backend} *)
  d_resumed : int;  (** functions restored from the journal *)
  d_generated : int;  (** functions generated (or regenerated) this run *)
  d_records : int;  (** journal records appended this run *)
  d_torn : bool;  (** a torn trailing record was recovered on resume *)
}

val journal_path : string -> string
(** The journal of a run directory. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents. *)

type journal
(** The open journal of a durable run: the one recorder that
    {!generate_backend_durable} and the serving layer ([vega.serve])
    both write through, so both produce the same records. While open it
    journals every fault recorded in its report as a [Fault_ev]. *)

val open_journal :
  ?kill_at:int ->
  report:Vega_robust.Report.t ->
  resume:bool ->
  t ->
  target:string ->
  string ->
  (journal * Vega_robust.Journal.completed list * bool, string) result
(** Open the journal of a run directory (created if missing). A fresh
    run refuses an existing journal and writes the header; [resume:true]
    checks the header against [target] and the pipeline's
    {!fingerprint}, compacts a torn tail away and reopens for appending.
    Returns the journal, the functions it completed, and whether its
    tail was torn; [Error] says why the directory cannot be used. Faults
    recorded while reading an old journal are not journaled. [kill_at]
    arms {!Vega_robust.Journal.Killed}. *)

val journal_begin : journal -> string -> Generate.gen_stmt -> unit
(** [journal_begin j fname] journals [Func_begin fname] and returns the
    [on_stmt] hook that journals each of its statements. *)

val journal_end : journal -> Generate.gen_func -> unit
(** Seal a function begun with {!journal_begin}. *)

val journal_records : journal -> int
(** Records appended since the journal was opened. *)

val close_journal : journal -> unit
(** Stop journaling faults, then close the file. *)

val completed_of_gen :
  string -> Generate.gen_func -> Vega_robust.Journal.completed
val func_of_completed :
  bundle -> string -> Vega_robust.Journal.completed -> Generate.gen_func
(** Conversions between generation results and replayed journal
    entries, shared with the serving layer, which keeps both kinds in
    one table and must answer with the same bit-identical functions. *)

val generate_backend_durable :
  ?fallback:Generate.decoder ->
  ?report:Vega_robust.Report.t ->
  ?sup:Vega_robust.Supervisor.t ->
  ?resume:bool ->
  ?kill_at:int ->
  ?domains:int ->
  run_dir:string ->
  t -> target:string -> decoder:Generate.decoder ->
  (durable_outcome, string) result
(** Whole-backend generation under the write-ahead journal in
    [run_dir]. Fresh runs refuse an existing journal; [resume:true]
    replays it (recovering a torn tail and compacting it away), restores
    completed functions, and regenerates only the rest. Functions whose
    statement trail was cut mid-write regenerate from scratch, so the
    final output is bit-identical to an uninterrupted run.

    [kill_at] arms the simulated hard crash ({!Vega_robust.Journal.Killed}
    escapes after that many durable records — the [faultcheck] harness).
    [Error] explains why the run directory cannot be used; faults during
    generation never produce [Error] — they degrade statements through
    the ladder as usual and are journaled ahead like everything else.

    [domains] parallelizes generation like {!generate_backend}: journal
    appends are mutex-guarded and replay keys statements by function
    name, so interleaved trails from concurrent functions resume
    correctly, and a [kill_at] crash in any domain stops every worker
    (the writer stays dead). [d_funcs] keeps bundle order either way. *)
