(** Feature selection (Sec. 3.2.2, Algorithm 1).

    For one function template, identify:
    - Boolean {e target-independent} properties behind the common-code
      tokens (declared in LLVMDIRs, possibly specialized under TGTDIRs —
      e.g. VariantKind; or linked by partial string matching — e.g.
      IsPCRel -> OperandType via "OPERAND_PCREL");
    - string {e target-dependent} properties behind the slot values
      (enum membership — e.g. fixup_arm_movt_hi16 in Fixups, correlated
      with MCFixupKind via FirstTargetFixupKind — or assignment partial
      match — e.g. "ARM" in [Name = "ARM"]).

    Every query goes through {!Vega_tdlang.Catalog} over the rendered
    description files; profiles are never consulted. *)

type prop_kind = Independent | Dependent

type source =
  | Enum_source of string
      (** property values are members of this enum (per-target instance) *)
  | Llvm_enum_source of string
      (** values come from an LLVM-provided enum (ISD nodes,
          DecodeStatus): a shared vocabulary every target selects over *)
  | Assign_source of string
      (** property values are assigned to this record field in .td files *)
  | Decl_presence  (** independent: declared/updated as a type or global *)

type prop = {
  pname : string;
  kind : prop_kind;
  source : source;
  identified_site : string option;  (** declaration under LLVMDIRs *)
}

(** How one slot's content is built from property values. *)
type pattern_item =
  | Plit of string  (** literal token, e.g. ["::"] *)
  | Pprop of string  (** value of the named dependent property *)
  | Pcompose of { pre : string; prop : string; post : string }
      (** the word is [pre ^ value ^ post], e.g. ARMELFObjectWriter is
          "" ^ Name ^ "ELFObjectWriter" *)
  | Pindex  (** the instance index within a repeated column *)

type target_view = {
  tv_target : string;
  independent : (string * bool) list;  (** prop -> present for this target *)
  candidates : (string * (string * string) list) list;
      (** dependent prop -> [(value, update_site)] in file order *)
}

type t = {
  props : prop list;
  slot_patterns : ((int * int * int) * pattern_item list) list;
      (** (column index, unit line, slot) -> majority pattern *)
  views : target_view list;
}

val prop_names : t -> string list
val view : t -> string -> target_view option
val pattern : t -> col:int -> line:int -> slot:int -> pattern_item list option

val candidates_for : target_view -> string -> (string * string) list
(** Candidate [(value, site)] list of a dependent property for a target;
    empty when the property has no values there. *)

type context = {
  vfs : Vega_tdlang.Vfs.t;
  llvm_cat : Vega_tdlang.Catalog.t;
  tgt_cats : (string * Vega_tdlang.Catalog.t) list;  (** per-target TGTDIRs *)
}

val make_context : Vega_tdlang.Vfs.t -> targets:string list -> context
(** Build the LLVMDIRs catalog and one TGTDIRs catalog per target. *)

val add_target : context -> string -> context
(** Extend a context with a new (e.g. held-out) target's catalog. *)

val analyze : context -> Template.t -> t
(** Run Algorithm 1 for a function template over the context's training
    targets. *)

val view_for_new_target : context -> Template.t -> t -> string -> target_view
(** Target-Specific stage (Sec. 3.4): compute the view of a target that
    did not participate in [analyze], from its description files only. *)
