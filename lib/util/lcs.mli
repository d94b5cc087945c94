(** Longest common subsequence.

    Used by templatization (Sec. 3.2.1 of the paper) to split matched
    statements into common code and variant placeholders, and by the
    statement aligner to pair statements across target-specific
    implementations of one interface function. *)

val lcs : eq:('a -> 'a -> bool) -> 'a array -> 'a array -> (int * int) list
(** [lcs ~eq xs ys] returns the index pairs [(i, j)] of a longest common
    subsequence of [xs] and [ys], in increasing order. *)

val lcs_length : eq:('a -> 'a -> bool) -> 'a array -> 'a array -> int
(** Length of the LCS only (no backtrace allocation). *)

val similarity : eq:('a -> 'a -> bool) -> 'a array -> 'a array -> float
(** Dice-style similarity [2*|lcs| / (|xs| + |ys|)] in [0, 1]; 1.0 for two
    empty sequences. *)
