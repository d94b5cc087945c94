(** The deterministic fault-injection suite behind [vega-cli faultcheck]
    and the [chaos] test suite.

    Five groups of scenarios, each a function of the seed, run in this
    order against one target:
    - {b matrix}: decoder, corpus, description-file, interpreter and
      simulator fuel and circuit-breaker faults, then the serving layer
      (overload, deadlines, drain/kill/resume); plus parallel
      determinism when [domains > 1];
    - {b kill-resume}: hard-kill a durable run after K journal records,
      tear the tail, resume, require bit-identical output;
    - {b shard}: the result-cache round trip and the shard-storm-kill
      determinism check;
    - {b soak}: seeded rounds of composed faults against a self-healing
      fleet;
    - {b stream}: connection chaos against the event loop.

    Every invariant that fails is one violation; the run never calls
    [exit]. *)

type groups = {
  matrix : bool;
  kill_resume : int option;
      (** the journal record to crash after; [Some k] with [k <= 0]
          sweeps the first, middle and last record *)
  shard : bool;
  soak : bool;
  stream : bool;
}

val default_groups : groups
(** matrix, the kill-resume sweep, shard and stream. *)

val select :
  kill_at:int option ->
  shard_kill:bool ->
  chaos_soak:bool ->
  stream_chaos:bool ->
  groups
(** The CLI's selection: each flag adds its group ([kill_at] the
    kill-resume group at that offset); no flag gives
    {!default_groups}. *)

val run :
  ?emit:(string -> unit) ->
  json:bool ->
  target:string ->
  seed:int ->
  run_dir:string ->
  domains:int ->
  soak_rounds:int ->
  groups ->
  (int, string) result
(** Run the selected groups and report through [emit] (default: stdout),
    ending with a summary line. [Ok n] is the number of violations;
    [Error] names an unknown target. Journals and caches go under
    [run_dir]. *)
