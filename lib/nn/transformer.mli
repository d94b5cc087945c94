(** CodeBE-mini: a from-scratch transformer encoder–decoder.

    Stand-in for UniXcoder (DESIGN.md): token + position embeddings,
    [n_layers] encoder and decoder blocks, tied-free output projection,
    teacher-forced cross-entropy training and greedy decoding that also
    reports per-token probabilities (used for confidence blending). *)

type config = {
  d_model : int;
  heads : int;
  d_ff : int;
  n_layers : int;
  max_len : int;  (** maximum input/output length (paper: 512) *)
  vocab_size : int;
}

type t

val create : ?seed:int -> config -> t
val config : t -> config
val params : t -> Tensor.t list
val n_params : t -> int

val loss : t -> src:int array -> tgt:int array -> Tensor.t
(** Teacher-forced loss of emitting [tgt] (terminated by EOS internally)
    given [src]. Must run inside {!Tensor.with_tape}. *)

val train_step : t -> Adam.t -> (int array * int array) list -> float
(** Accumulate gradients over the mini-batch, step the optimizer, return
    the mean loss. *)

type batcher
(** Coalesces decode calls from concurrent domains into shared batched
    steps over one engine; see {!batcher}. *)

val generate :
  t ->
  src:int array ->
  ?max_out:int ->
  ?batch:batcher ->
  unit ->
  int array * float array
(** Greedy decode: output ids (without EOS) and per-token probabilities.
    Runs the batched engine with one slot ([generate_batch ~slots:1]);
    bit-identical to {!generate_uncached}. With [?batch] the call is
    routed through the given concurrent batcher (which must belong to
    this model): concurrent callers' steps coalesce into shared batched
    decode steps, and each caller still gets the same bit-identical
    result — per-slot rows are accumulated independently of the batch
    composition. The source is encoded in the caller's domain, so an
    out-of-vocabulary id raises [Fault (Tensor_fault _)] in the caller
    alone. Do not call under {!Tensor.with_tape}: the encoder would
    record onto the caller's tape. *)

val generate_uncached :
  t -> src:int array -> ?max_out:int -> unit -> int array * float array
(** Reference greedy decode that re-runs [decode_logits] on the whole
    prefix every step (O(L²·layers) per token); kept for equivalence
    testing and benchmarking against {!generate}. *)

val encode : t -> int array -> Tensor.t
(** Encoder memory for [src] (clipped to [max_len]). *)

val decode_logits : t -> memory:Tensor.t -> int array -> Tensor.t
(** Full-prefix decoder forward: logits for every position of
    [dec_ids]. *)

(** {1 Batched decode}

    A fixed pool of request slots advanced together: one [batch_step]
    moves every fed slot one position through all decoder layers over
    preallocated float32 buffers. Requests join and leave between steps
    (continuous batching); each slot's logits are bit-identical to the
    last row of {!decode_logits} over its prefix for any batch
    composition. At most [max_len] positions per slot. *)

type batch

val new_batch : t -> slots:int -> batch
val batch_join : batch -> src:int array -> int
(** Encode [src] and claim a free slot for it; raises
    [Fault (Tensor_fault _)] when all slots are busy. *)

val batch_leave : batch -> slot:int -> unit
(** Release a slot for reuse by a later {!batch_join}. *)

val batch_step : batch -> (int * int) array -> unit
(** [(slot, token)] feeds: advance each fed slot one position. Raises
    [Fault (Tensor_fault _)] for a free slot, an out-of-vocabulary
    token or a slot already [max_len] positions deep. *)

val batch_logits : batch -> slot:int -> float array
(** Logits row for [slot] from the last {!batch_step} that fed it;
    valid until the next step. *)

val generate_batch :
  t ->
  ?slots:int ->
  srcs:int array array ->
  ?max_out:int ->
  unit ->
  (int array * float array) array
(** Continuous batched greedy decode of [srcs] (admission in input
    order as slots free up). Result [i] is bit-identical to
    [generate_uncached t ~src:srcs.(i)]. *)

val batcher : t -> slots:int -> batcher
(** Thread-safe coalescing front-end over one {!batch} engine, for use
    via [generate ~batch]. *)

val batcher_slots : batcher -> int
