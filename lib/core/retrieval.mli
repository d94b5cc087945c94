(** Retrieval decoder: the "statistical method" the paper argues against
    (Sec. 2.4) and our model-ablation arm.

    For each generation FV it returns the output of the nearest training
    FV by bag-of-tokens cosine similarity over inputs. Presence and value
    arrangement therefore come from the single most similar training
    statement instead of a learned combination.

    The index is inverted (token to entries), so a query scores only the
    entries that share a token with it; scores and tie-breaking equal a
    linear scan over every entry, bit for bit. It is read-only after
    [build], so one decoder may run on several domains at once. *)

type t

val build : (Featrep.fv * string list) list -> t
(** [(fv, output)] pairs from training. *)

val decode : t -> Generate.decoder

val size : t -> int

val outputs : t -> string list list
(** Every indexed output, in build order — lets tests assert the index
    covers exactly the training side of the split (no eval leakage). *)
