(** Supervised run loop: per-function deadlines, bounded exponential
    backoff with deterministic seeded jitter, and a circuit breaker on
    the decoder.

    The supervisor does not call the pipeline; the pipeline calls {e it}.
    [generate_backend ~sup] brackets every function with
    {!start_function}/{!end_function} and wraps the decoder in {!guard},
    which enforces the wall-clock budget (monotonic clock — immune to
    system-time jumps), retries retryable faults with backoff, and —
    after [breaker_threshold] consecutive decoder-family faults — opens
    the breaker so further decode attempts are skipped outright and the
    degradation ladder routes straight to its fallback rungs. *)

type config = {
  breaker_threshold : int;
      (** consecutive decoder-family faults that open the breaker *)
  breaker_cooldown : int;
      (** guarded calls short-circuited while open before a half-open
          probe is allowed; counted in calls, not seconds, so tests are
          deterministic *)
  max_retries : int;  (** extra attempts per guarded call *)
  backoff_base_s : float;
  backoff_max_s : float;
  func_deadline_s : float;  (** per-function wall-clock budget *)
  jitter_seed : int;
}

val default_config : config

type breaker = Breaker.state =
  | Closed of int  (** consecutive decoder-family faults so far *)
  | Open of int  (** guarded calls left before a half-open probe *)
  | Half_open  (** next guarded call is a single probe *)

type cancel_token
(** Shared cancellation flag: set once by the connection owner (event
    loop or router) when the client sends a cancel frame or vanishes,
    observed by the decode at statement boundaries. Safe to set from a
    different domain than the one decoding. *)

val new_cancel : unit -> cancel_token
val cancel : cancel_token -> unit

type stats = {
  mutable sup_functions : int;
  mutable sup_retried : int;  (** backoff retries performed *)
  mutable sup_breaker_opened : int;  (** transitions into [Open] *)
  mutable sup_breaker_skips : int;  (** calls short-circuited while open *)
  mutable sup_deadline_hits : int;
}

type t

val create : ?now:(unit -> float) -> ?sleep:(float -> unit) -> config -> t
(** [now] defaults to the monotonic clock (seconds); [sleep] to
    [Unix.sleepf]. Both are injectable so tests run on a virtual
    clock. *)

val config : t -> config
val stats : t -> stats
val breaker_state : t -> breaker

val fork : ?index:int -> t -> t
(** Worker-private copy for one domain: same config, clock and sleep
    hook, fresh stats, breaker and deadline. A supervisor carries
    mutable per-function state and must never be shared across domains.

    [index] (default 0) selects the fork's jitter stream: the base seed
    is mixed with the domain index, so every worker's backoff schedule
    is reproducible across runs with equal seeds while distinct workers
    stay decorrelated (equal seeds would retry in lock-step — a
    thundering herd against the decoder). *)

val absorb : t -> t -> unit
(** [absorb parent child] folds a forked supervisor's stats back into
    [parent]; call after joining the worker domain. *)

val set_budget : t -> float option -> unit
(** Override the per-function wall-clock budget for subsequent
    {!start_function} calls ([None] restores [func_deadline_s]) — how
    the serving layer applies a per-request deadline without rebuilding
    the supervisor. Sticky until changed; only the owning domain may
    call it. *)

val set_cancel : t -> cancel_token option -> unit
(** Attach (or clear) the cancellation token consulted by
    {!check_cancel}. Sticky across functions until changed; the serving
    layer attaches a fresh token per request. *)

val check_cancel : ?at_stmt:int -> t -> unit
(** Raise [Fault (Cancelled _)] if the attached token is set.
    [at_stmt] names the statement boundary at which the abort is
    observed; cancellation is never checked mid-statement, so a partial
    function is always a clean statement prefix. *)

val start_function : t -> string -> unit
(** Arm the deadline: the named function's budget starts now. *)

val end_function : t -> unit
(** Disarm the deadline. *)

val backoff_delay : t -> int -> float
(** [backoff_delay t attempt] is {!Breaker.backoff} on the configured
    base and cap, drawing its jitter from this supervisor's seeded
    stream — deterministic across runs with equal seeds. *)

val guard : t -> (unit -> 'a) -> 'a
(** Run a decoder call under supervision. Raises
    [Fault (Deadline_exceeded _)] when the armed budget is spent,
    [Fault (Breaker_open _)] when the breaker is open (the call is
    never made), and otherwise retries retryable faults up to
    [max_retries] times with backoff before re-raising. A success in
    half-open state closes the breaker; a failure re-opens it. *)
