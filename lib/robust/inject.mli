(** Deterministic, seeded fault injection.

    An injector carries a plan (seed, fault kind, firing period) and two
    counters: opportunities seen and faults actually injected. Firing is a
    pure function of the plan and the opportunity index, so a run replays
    bit-identically under the same seed — the invariant "every injected
    fault appears in the run report" is checkable by comparing
    {!injected} against the report. *)

type kind =
  | Decoder_raise  (** decoder raises a typed fault *)
  | Decoder_nan  (** decoder returns NaN token probabilities *)
  | Decoder_garbage  (** decoder returns infinite token probabilities *)
  | Corpus_mangle  (** a reference impl's target renamed to garbage *)
  | Descfile_garbage  (** description files overwritten with binary junk *)
  | Decoder_stall  (** decoder burns wall clock before answering *)
  | Queue_storm  (** a seeded burst of concurrent requests *)
  | Request_kill  (** hard kill mid-request (journal [kill_at]) *)
  | Register_mangle  (** emitted-assembly lines deleted (see {!mangle_asm}) *)
  | Shard_kill  (** one serving shard hard-killed mid-storm *)
  | Cache_corrupt  (** one byte of a result-cache entry flipped on disk *)
  | Probe_drop  (** selected fleet health probes are swallowed *)
  | Conn_half_close  (** a streaming peer half-closes mid-decode *)
  | Slow_client  (** a peer reads its socket slower than frames arrive *)
  | Cancel_mid_decode  (** a cancel frame lands mid-decode *)

type t

val create : ?every:int -> seed:int -> kind -> t
(** Fire on every [every]-th opportunity (default 1 = always),
    phase-shifted by [seed]. *)

val injected : t -> int
val opportunities : t -> int

val fire : t -> bool
(** Count one opportunity; [true] when this one is selected for
    injection. *)

val wrap_decoder : t -> ('a -> string list * float array) -> 'a -> string list * float array
(** Wrap any decoder-shaped function with the planned decoder fault;
    non-decoder kinds pass through untouched. *)

val mangle_asm : t -> candidate:(string -> bool) -> string -> string
(** [Register_mangle] helper: delete every fired [candidate] line from
    an assembly listing (one opportunity per candidate line). The
    selector keeps this library backend-agnostic — callers pass e.g.
    {!Vega_absint}'s "restores a callee-saved register" predicate to
    seed calling-convention defects the semantic verifier must catch.
    Other kinds return the listing unchanged. *)

val wrap_stalling_decoder :
  t ->
  stall:(unit -> unit) ->
  ('a -> string list * float array) ->
  'a ->
  string list * float array
(** [Decoder_stall] wrapper: on each fired opportunity call [stall ()]
    (wall-clock sleep or a virtual-clock advance) before decoding. The
    decode still succeeds — the fault surfaces as the per-request
    deadline tripping on the next supervised call. Other kinds never
    stall. *)

val storm_order : t -> int -> int list
(** [Queue_storm] helper: a seeded permutation of [0 .. n-1] — the
    submission order for an [n]-request overload burst. Pure in the
    plan's seed, so a bounded queue's accept/reject decisions against it
    replay bit-identically. *)

val kill_offset : t -> records:int -> int
(** [Request_kill] helper: a deterministic journal-record offset to arm
    [kill_at] with — strictly after the header, at most the final
    record, a pure function of the seed. *)

val shard_victim : t -> shards:int -> int
(** [Shard_kill] helper: the index of the shard to kill — a pure
    function of the seed. The caller arms that shard's journal
    [kill_at] (via {!kill_offset}) so the kill is a real mid-write
    crash. *)

val wrap_dropping_probe : t -> shard:string -> ('a -> 'b) -> 'a -> 'b
(** [Probe_drop] wrapper around a fleet health probe: on each fired
    opportunity raise [Fault (Probe_loss _)] instead of probing. The
    probe still counts a decision on the fleet's clock, so a dropped
    probe is tolerated — only K consecutive losses classify the shard.
    Other kinds pass through. *)

val cancel_schedule : t -> streams:int -> max_stmt:int -> (int * int) list
(** [Cancel_mid_decode] helper: for each selected stream index in
    [0, streams), the statement boundary (in [0, max_stmt)) at which the
    scripted client sends its cancel frame. A pure function of the
    plan's seed — one opportunity per stream — so a cancel-storm
    schedule replays bit-identically. Other kinds return []. *)

val slow_clients : t -> conns:int -> (int * int) list
(** [Slow_client] helper: the selected connection indices paired with a
    seeded per-tick read budget in bytes — small enough that a streaming
    reply trips the write-buffer high-water mark and the engine must
    shed the reader with a typed [Slow_reader] rejection. Other kinds
    return []. *)

val half_close_at : t -> streams:int -> max_stmt:int -> (int * int) list
(** [Conn_half_close] helper: for each selected stream index, the number
    of statement frames after which the scripted peer half-closes its
    write side (EOF at the server). The engine must turn each into a
    typed cancellation, never a raw exception. Other kinds return []. *)

val corrupt_cache_entry : t -> path:string -> int option
(** [Cache_corrupt] helper: flip one seeded byte of the file at [path]
    in place; returns the flipped offset, [None] when the kind doesn't
    apply or the file is empty/unreadable. *)

val corrupt_corpus : t -> Vega_corpus.Corpus.t -> Vega_corpus.Corpus.t
(** Rename the first implementation's target of each selected multi-impl
    group to an unregistered name. Structural corruption the [prepare]
    validation must catch; single-impl groups are left alone so groups
    lose coverage, not existence. *)

val corrupt_descfiles : t -> Vega_tdlang.Vfs.t -> target:string -> string list
(** Overwrite selected description files of [target] with binary garbage
    in place; returns the corrupted paths. *)

val looks_corrupted : string -> bool
(** Heuristic used by {!scan_vfs}: NUL or 0xFF bytes in file contents. *)

val scan_vfs : ?report:Report.t -> Vega_tdlang.Vfs.t -> target:string -> Fault.t list
(** Scan [target]'s description files, returning (and recording) one
    [Descfile_corruption] per corrupted file. *)
