(** The degradation ladder for per-statement generation.

    When the primary decoder fails, generation walks down the rungs:
    retry once, fall back to the retrieval decoder, render the template
    default via [Featrep.render_line], or finally omit the statement with
    a flag. Each rung caps the Eq. (1) confidence so degraded statements
    surface for review instead of silently passing. *)

type level = Primary | Retry | Retrieval_fallback | Template_default | Omitted

val all : level list
(** All rungs, best first. *)

val rank : level -> int
(** 0 for [Primary] up to 4 for [Omitted]. *)

val cap : level -> float
(** Confidence ceiling of the rung: 1.0 / 0.95 / 0.75 / 0.45 / 0.0 —
    monotonically non-increasing in {!rank}; [Template_default] is below
    the 0.5 accept threshold so those statements enter the Err-CS review
    channel. *)

val name : level -> string

val of_name : string -> level option
(** Inverse of {!name}, for journal deserialization. *)
