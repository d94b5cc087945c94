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

val generate :
  t -> src:int array -> ?max_out:int -> unit -> int array * float array
(** Greedy decode: output ids (without EOS) and per-token probabilities.
    Runs one {!decoder} over [src]; bit-identical to
    {!generate_uncached}. Each call has its own decode state and only
    reads the weights, so concurrent calls from several domains are
    safe; an out-of-vocabulary id in [src] raises
    [Fault (Tensor_fault _)] in its own caller. Do not call under
    {!Tensor.with_tape}: the encoder would record onto the caller's
    tape. *)

val generate_uncached :
  t -> src:int array -> ?max_out:int -> unit -> int array * float array
(** Reference greedy decode that re-runs [decode_logits] on the whole
    prefix every step (O(L²·layers) per token); kept for equivalence
    testing against {!generate}. *)

val encode : t -> int array -> Tensor.t
(** Encoder memory for [src] (clipped to [max_len]). *)

val decode_logits : t -> memory:Tensor.t -> int array -> Tensor.t
(** Full-prefix decoder forward: logits for every position of
    [dec_ids]. *)

(** {1 Incremental decoder}

    One request's decode, one position per {!feed}, over a KV cache per
    decoder layer and preallocated float32 buffers. After each {!feed},
    the logits are bit-identical to the last row of {!decode_logits}
    over the prefix fed so far. At most [max_len] positions. *)

type decoder

val start : t -> src:int array -> decoder
(** Encode [src] and return a decoder at position 0. Raises
    [Fault (Tensor_fault _)] for an out-of-vocabulary id. *)

val feed : decoder -> int -> unit
(** Advance one position with the given token (the first is
    [Vocab.e2d]). Raises [Fault (Tensor_fault _)] for an
    out-of-vocabulary token or past [max_len] positions. *)

val logits : decoder -> float array
(** Logits of the last fed position, copied out. *)

val pick : decoder -> int * float
(** Greedy pick over the last fed position's logits, read in place: the
    first id of highest logit and its softmax probability. *)
