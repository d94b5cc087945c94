(** GumTree-style tree matching (Falleri et al., ASE'14), simplified.

    Two phases, as in the paper VEGA cites:
    - top-down: greedily match the largest isomorphic subtrees between the
      two trees (anchors);
    - bottom-up: match containers whose matched descendants exceed a dice
      threshold, recovering statement-level pairs whose contents differ
      only in target-specific values.

    The mapping is a partial injective function from nodes of [t1] to
    nodes of [t2]. *)

type mapping

val create : unit -> mapping
val pairs : mapping -> (Tree.t * Tree.t) list
val src_of : mapping -> Tree.t -> Tree.t option
(** Image of a [t1]-node. *)

val dice : mapping -> Tree.t -> Tree.t -> float
(** Dice coefficient over matched descendants of two containers. *)

val top_down : ?min_height:int -> Tree.t -> Tree.t -> mapping
(** Anchor phase. [min_height] (default 0: leaves included) bounds the
    smallest isomorphic subtree considered. *)

val bottom_up : ?min_dice:float -> Tree.t -> Tree.t -> mapping -> mapping
(** Container phase; extends the mapping in place and returns it.
    [min_dice] defaults to 0.3. *)

val gumtree : Tree.t -> Tree.t -> mapping
(** [top_down] followed by [bottom_up] with default thresholds. *)
