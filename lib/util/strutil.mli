(** String helpers shared across the reproduction.

    Feature selection (Algorithm 1 of the paper) relies on partial string
    matching between tokens and the right-hand sides of assignments in
    target description files; the matching primitives live here. *)

val starts_with : prefix:string -> string -> bool
val ends_with : suffix:string -> string -> bool

val contains_sub : sub:string -> string -> bool
(** Substring containment, case-sensitive. *)

val loose_match : string -> string -> bool
(** Word-aware partial match used for Algorithm 1's common-code search
    ("IsPCRel" matches "OPERAND_PCREL"): the whole lowercase strings embed
    one another (length >= 4), or some camel word of either side (length
    >= 4) embeds in the other's lowercase form. Short fragments never
    match, so one-letter register prefixes cannot create junk links. *)

val lowercase : string -> string
val uppercase : string -> string

val camel_words : string -> string list
(** Split an identifier on case transitions and separators:
    ["IsPCRel"] -> [["Is"; "PC"; "Rel"]], ["fixup_arm_movt"] ->
    [["fixup"; "arm"; "movt"]]. *)

val common_token_score : string -> string -> float
(** Fraction of camel words shared between two identifiers, in [0, 1]. *)
