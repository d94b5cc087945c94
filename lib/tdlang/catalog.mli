(** Index over a directory set of a virtual file tree.

    The catalog answers the queries of the paper's Algorithm 1:
    - PropCandidateSet(LLVMDIRs): class names, enum names and global
      variable names declared under a directory family;
    - "tok appears under TGTDIRs" (word-level occurrence, with file);
    - "assignment tok' = str under TGTDIRs" (string-valued record fields);
    - "tok appears as a member of an enum tok'";
    - resolved numeric values of every qualified enum member, which also
      seed the BackendC interpreter environment. *)

type t

val build : Vfs.t -> string list -> t
(** Index all files under the given roots. [.td], [.h] and [.def] files
    are parsed structurally; any other extension is indexed at the word
    level only. Files are processed in sorted path order, so enum-member
    numbering is deterministic. Parse failures in individual files are
    logged and skipped (the corpus should never produce them). *)

val is_prop : t -> string -> bool

val find_word : t -> string -> string list
(** Files (sorted paths) whose word tokens contain the given word. *)

val assignments : t -> (string * string * string) list
(** All [(field, value, path)] for string-valued fields [let field =
    "value";] in .td records. *)

val assignments_of : t -> string -> (string * string) list
(** [(value, path)] pairs for one field name. *)

val enum_of_member : t -> string -> (string * string) option
(** [enum_of_member t "fixup_arm_movt_hi16"] = [Some (enum_name, path)]
    when the word is a member of a parsed enum ([.def] relocations count
    as members of the pseudo-enum ["ELF"]). *)

val members_of_enum : t -> string -> string list
(** Member names of the enum (unqualified), in declaration order. *)

val enum_path : t -> string -> string option
(** File where the enum (or pseudo-enum) is declared. *)

val resolved_members : t -> (string * int) list
(** Every qualified member ["Scope::member"] (or ["Enum::member"] when
    unscoped) with its resolved numeric value. *)

val member_value : t -> string -> int option
(** Resolved value of a qualified (or unique unqualified) member name. *)

val records : t -> (string * Td_ast.record) list
(** [(path, record)] for every .td record. *)

val enum_decls : t -> (string * Td_ast.enum_decl) list
(** [(path, decl)] for every parsed enum, with raw member initializers —
    needed to follow the paper's "Fixups correlates with MCFixupKind via
    FirstTargetFixupKind" identified-site chain. *)

val record_field : t -> record:string -> field:string -> Td_ast.value option

val global_path : t -> string -> string option
(** Declaration site of a global/class/enum name, if declared here. *)
