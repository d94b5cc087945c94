(** Token vocabulary with the special tokens of the CodeBE I/O encoding
    (Sec. 3.3): [CLS]/[E2D]/[SEP]/[PAD]/[EOS]/[UNK], the quantized
    confidence-score tokens <cs_0> .. <cs_20>, the placeholder tokens
    <SV0>.., the copy tokens <COPY_0>.. that splice property values into
    the output, and <IDX> for repeated-instance indices. *)

type t

val specials : string list
val e2d : int
val eos : int
val unk : int

val n_score_buckets : int
val score_token : float -> string
(** Quantize a confidence in [0,1] to its bucket token. *)

val score_of_token : string -> float option

val copy_token : int -> string
val copy_of_token : string -> int option
val index_token : string

val build : string list list -> t
(** Build from training token sequences; every token occurring at least
    once is kept, specials first. *)

val size : t -> int
val id : t -> string -> int
(** [unk] for unknown tokens. *)

val token : t -> int -> string
val encode : t -> string list -> int array
val decode : t -> int array -> string list
