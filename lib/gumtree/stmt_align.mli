(** Statement alignment across two implementations of one interface
    function (the pairing of [S_k] statements in Fig. 2 of the paper).

    Statements are given as [(kind, tokens)]; alignment is monotone
    (statement order is preserved) and driven by a Needleman–Wunsch pass
    whose scores combine token-level LCS similarity with hard anchors from
    the GumTree matching of the two line trees. *)

type slot = { left : int option; right : int option }
(** One column of the alignment: indices into the two statement arrays.
    [{left = Some i; right = None}] is a statement present only on the
    left. At least one side is always [Some]. *)

val align :
  (string * string list) array -> (string * string list) array -> slot list

val pair_similarity : string * string list -> string * string list -> float
(** Score used for pairing: 0 when kinds differ, else token-LCS dice. *)
