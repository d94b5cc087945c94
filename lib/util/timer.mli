(** Wall-clock timing for the Fig. 7 inference-time measurements. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result with elapsed seconds. *)
