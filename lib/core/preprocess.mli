(** Pre-processing of corpus functions (Sec. 3.1 of the paper):

    - recursive inlining of local helper callees (e.g. ARM's
      GetRelocTypeInner into getRelocType), keeping interface calls;
    - normalization of if/else-if chains over one scrutinee into [switch];
    - flattening into statement lines, and collapsing runs of repeated
      statement units (the many [case X: return Y;] arms) into a single
      repeated unit with recorded instances, which is what makes one
      statement template (the paper's T_5) stand for all of a target's
      case arms. *)

type cline = { kind : string; tokens : string list }
(** One statement line: kind from {!Vega_srclang.Lines.kind_name} plus
    canonical token spellings. *)

type citem =
  | Single of cline
  | Repeat of cline list list
      (** instances of a repeated unit; every instance has the same length
          (the unit length) and shape *)

val inline_helpers : Vega_srclang.Ast.func -> Vega_srclang.Ast.func list -> Vega_srclang.Ast.func
(** Inline tail-call helpers: a body of the exact form
    [return Helper(p1, .., pn);] where [Helper] is among the given local
    functions with matching parameters is replaced by the helper's body. *)

val normalize_ifchains : Vega_srclang.Ast.func -> Vega_srclang.Ast.func
(** Rewrite if/else-if chains testing [scrutinee == constant] (chain
    length >= 2) into an equivalent [switch]. *)

val lines_of_func : Vega_srclang.Ast.func -> cline list
(** Canonical statement lines after normalization. *)

val collapse : cline list -> citem list
(** Collapse maximal runs (>= 2 repetitions) of similar statement units of
    period 1..4 into [Repeat] items. *)

val run : Vega_srclang.Ast.func -> helpers:Vega_srclang.Ast.func list -> citem list
(** Full pipeline: inline, normalize, flatten, collapse. *)

val item_head : citem -> cline
(** Representative first line of an item. *)

val similar_lines : cline -> cline -> bool
(** Same kind and token-LCS similarity at least 0.5 — the repeat-unit
    shape equivalence. *)
