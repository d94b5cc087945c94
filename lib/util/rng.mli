(** Deterministic pseudo-random number generator (splitmix64).

    All stochastic components of the reproduction (corpus variation, weight
    initialization, dataset shuffling) draw from this generator so that
    [dune runtest] and [bench/main.exe] are bit-reproducible. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)

val index_seed : int -> int -> int
(** [index_seed seed i] is the seed of the [i]-th stream in a family
    sharing base [seed] (golden-ratio mixing): reproducible per index,
    decorrelated across indices. Supervisor forks, router shards and
    fleet slots each draw their jitter from one such stream. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val gaussian : t -> float
(** Standard normal via Box–Muller. *)

val uniform : t -> lo:float -> hi:float -> float

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
