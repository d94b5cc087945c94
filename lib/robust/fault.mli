(** Structured fault taxonomy for the generation pipeline.

    Every failure mode the pipeline tolerates has a typed representation
    here: decoder exceptions, NaN/garbage token probabilities, corrupted
    corpus groups and description files, interpreter/simulator fuel
    exhaustion, simulator traps, and out-of-bounds template lookups.
    Stages report faults instead of crashing; the degradation ladder in
    [Generate] turns them into lower-confidence statements. *)

type t =
  | Decoder_failure of { fname : string; stage : string; message : string }
      (** the decoder raised while producing tokens for [fname] *)
  | Nan_score of { fname : string; detail : string }
      (** a token probability came back NaN or infinite *)
  | Corpus_corruption of { group : string; detail : string }
      (** a reference implementation failed structural validation *)
  | Descfile_corruption of { path : string; detail : string }
      (** a target description file holds non-textual garbage *)
  | Interp_fuel_exhausted of { fuel : int }
      (** the BackendC interpreter spent its whole step budget *)
  | Sim_fuel_exhausted of { fuel : int }
      (** the ISA simulator spent its retired-instruction budget *)
  | Sim_trap of { message : string }  (** the ISA simulator trapped *)
  | Bounds_error of { what : string; index : int; length : int }
      (** an index fell outside a template structure *)
  | Stage_failure of { stage : string; message : string }
      (** any other exception escaping an isolated stage *)
  | Deadline_exceeded of { fname : string; budget_ms : int }
      (** the supervisor's per-function wall-clock budget ran out *)
  | Breaker_open of { fname : string; failures : int }
      (** the decoder circuit breaker is open: the decode was skipped so
          the ladder can route straight to a fallback rung *)
  | Record_oversize of { where : string; bytes : int; limit : int }
      (** a wire record (journal line, serve request) exceeded the size
          bound and was rejected instead of allocated *)
  | Cache_corruption of { key : string; detail : string }
      (** a content-addressed result-cache entry failed its checksum or
          metadata check and was evicted instead of served *)
  | Shard_failure of { shard : string; detail : string }
      (** a serving shard was unreachable, crashed mid-request, or
          stalled past the router's patience *)
  | Shard_stalled of { shard : string; decisions : int }
      (** the fleet supervisor classified a shard as stalled: its probe
          went unanswered for [decisions] router decisions — alive but
          too slow, the trigger for hedged requests *)
  | Shard_flapping of { shard : string; crashes : int; window : int }
      (** the flap detector counted [crashes] shard crashes inside a
          [window]-decision window — the shard is quarantined instead of
          crash-looping through respawns *)
  | Probe_loss of { shard : string; detail : string }
      (** a health probe was dropped or timed out without classifying
          the shard either way *)
  | Tensor_fault of { op : string; detail : string }
      (** a tensor-level invariant (shape agreement, index bound, tape
          discipline) was violated during a decode or training step;
          classed as a decoder failure so the degradation ladder can
          downgrade the request instead of an [Assert_failure] killing
          the shard *)
  | Cancelled of { fname : string; at_stmt : int }
      (** the client cancelled (explicit frame or disconnect) and the
          decode was aborted at statement boundary [at_stmt]; the batch
          slot is freed and the journal keeps the partial prefix *)
  | Peer_gone of { where : string }
      (** the peer vanished mid-frame ([EPIPE]/[ECONNRESET] or a
          half-close observed while streaming); typed so the event loop
          sheds the connection instead of an escaping [Unix_error] *)

exception Fault of t
(** The one exception robust stages raise and {!Stage.protect} catches. *)

(** Coarse class of a fault, for counting and injection matrices. *)
type cls =
  | Cdecoder
  | Cscore
  | Ccorpus
  | Cdescfile
  | Cinterp_fuel
  | Csim_fuel
  | Csim_trap
  | Cbounds
  | Cstage
  | Cdeadline
  | Cbreaker
  | Coversize
  | Ccache
  | Cshard
  | Cstall
  | Cflap
  | Cprobe
  | Ccancel
  | Cpeer

val all_classes : cls list
val cls_of : t -> cls
val cls_name : cls -> string
val to_string : t -> string

val to_fields : t -> string list
(** Wire representation (constructor tag + payload fields) used by the
    {!Journal}. *)

val of_fields : string list -> t option
(** Inverse of {!to_fields}; [None] on an unknown tag or bad payload. *)

val nth : what:string -> 'a list -> int -> 'a
(** Bounds-checked [List.nth]: raises [Fault (Bounds_error _)] naming
    [what] instead of [Failure "nth"] / [Invalid_argument]. *)
