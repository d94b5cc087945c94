(** The circuit breaker and its retry backoff, as pure functions.

    One state machine serves every breaker in the system: the
    supervisor's (one per decode worker, guarding the decoder) and the
    router's (one per shard, guarding contacts). The cooldown counts
    admitted calls, not seconds, so a schedule replays exactly under a
    seed. Callers own the state and the lock around it. *)

type state =
  | Closed of int  (** consecutive counted failures so far *)
  | Open of int  (** calls left to skip before a half-open probe *)
  | Half_open  (** the next call is a single probe *)

type verdict =
  | Skip  (** open: short-circuit the call *)
  | Call  (** closed: the call goes ahead, retries allowed *)
  | Probe  (** half-open: one attempt, never retried *)

val initial : state
(** [Closed 0]. *)

val admit : state -> verdict * state
(** Before a call: [Open k] with [k > 1] skips and counts down to
    [Open (k-1)]; any other [Open] lets one probe through and becomes
    [Half_open] (as does [Half_open] itself); [Closed] calls. *)

val success : state -> state
(** Any success closes the breaker and clears the count. *)

val failure :
  threshold:int -> cooldown:int -> counted:bool -> state -> state
(** A failed call. A failed probe re-opens for a full [cooldown]. A
    [counted] failure in [Closed k] opens at [threshold] consecutive
    failures, else counts [k+1]; an uncounted one (a fault outside the
    guarded family) resets to [Closed 0]. [Open] is left as it is. *)

val tripped : before:state -> state -> bool
(** The transition from [before] opened the breaker. *)

val closed : state -> bool
(** Neither open nor probing: the health view of a breaker. *)

val name : state -> string
(** ["closed"], ["open"] or ["half-open"]. *)

val backoff : base:float -> max:float -> Vega_util.Rng.t -> int -> float
(** Retry delay in seconds before attempt [a+1]:
    [min max (min max (base * 2^a) * j)] with [j] in \[0.75, 1.25) from one
    draw of the caller's stream. Capping before the jitter keeps the
    spread at the cap (delays stay in \[0.75 max, max\] instead of all
    equal to [max], so capped retries stay decorrelated); capping after
    keeps the jittered delay under [max]. *)
