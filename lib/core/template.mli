(** Templatization (Sec. 3.2.1): abstract a function group into a function
    template of statement templates, separating common code from variant
    placeholders.

    A function template is an ordered list of columns. A column is either
    a single statement or a repeated unit (the collapsed [case X: return
    Y;] arms); each column records, per target, the concrete instances
    observed. Statement templates carry [Tok]/[Slot] items; slots are the
    paper's [SV] placeholders holding target-specific values. *)

type tpl_token = Tok of string | Slot of int

type stmt_template = { kind : string; items : tpl_token list; nslots : int }

type column = {
  unit : stmt_template list;  (** length 1 for single statements *)
  repeated : bool;
  occurrences : (string * Preprocess.cline list list) list;
      (** target -> instances (each instance is [unit]-many lines); a
          target absent from the list does not implement this statement *)
}

type t = {
  fname : string;  (** interface function name *)
  module_ : Vega_target.Module_id.t;
  signature : stmt_template;  (** template of the function-definition line *)
  signatures : (string * Preprocess.cline) list;
      (** per-target signature lines the template was built from *)
  columns : column list;
  targets : string list;  (** all targets contributing to the group *)
}

val tokens_of_template : stmt_template -> string list
(** Rendering with slots as ["<SV0>"], ["<SV1>"], ... *)

val build_stmt_template : string -> string list list -> stmt_template
(** [build_stmt_template kind variants] — common tokens are those every
    variant agrees on (via LCS against the longest variant); maximal
    disagreement gaps become slots. *)

val match_instance : stmt_template -> string list -> string list list option
(** Align a concrete token list against a template; [Some values] gives
    per-slot token lists. [None] when the common anchors cannot be matched
    in order. *)

val render_instance : stmt_template -> string list list -> string list
(** Inverse of {!match_instance}: substitute per-slot token lists. *)

val build : fname:string -> module_:Vega_target.Module_id.t ->
  (string * Preprocess.citem list) list ->
  signature_lines:(string * Preprocess.cline) list -> t
(** [build ~fname ~module_ impls ~signature_lines] constructs the function
    template from pre-processed implementations (target name ->
    collapsed items), with per-target signature lines aligned into
    [signature]. *)

val signature_column : t -> column
(** The function-definition statement as a pseudo-column (used with
    column index -1 by feature selection and generation). *)
