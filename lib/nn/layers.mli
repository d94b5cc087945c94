(** Transformer building blocks over {!Tensor}. Every block exposes its
    trainable parameters through [params]. *)

type linear

val linear : Vega_util.Rng.t -> d_in:int -> d_out:int -> linear
val linear_fwd : linear -> Tensor.t -> Tensor.t
val linear_params : linear -> Tensor.t list

type norm

val norm : d:int -> norm
val norm_fwd : norm -> Tensor.t -> Tensor.t
val norm_params : norm -> Tensor.t list

type attention

val attention : Vega_util.Rng.t -> d_model:int -> heads:int -> attention

val attention_fwd :
  attention ->
  q_input:Tensor.t ->
  kv_input:Tensor.t ->
  mask:(int -> int -> bool) option ->
  Tensor.t
(** Multi-head attention; self-attention when [q_input == kv_input].
    [mask i j] permits query row i to attend to key row j. *)

val attention_params : attention -> Tensor.t list

type block

val encoder_block : Vega_util.Rng.t -> d_model:int -> heads:int -> d_ff:int -> block
val encoder_fwd : block -> Tensor.t -> Tensor.t
val block_params : block -> Tensor.t list

type dec_block

val decoder_block : Vega_util.Rng.t -> d_model:int -> heads:int -> d_ff:int -> dec_block

val decoder_fwd : dec_block -> x:Tensor.t -> memory:Tensor.t -> Tensor.t
(** Causal self-attention then cross-attention over [memory]. *)

val dec_block_params : dec_block -> Tensor.t list

(** {1 Batched decode engine}

    Zero-allocation kernels advancing a whole batch of decode rows per
    step over preallocated float32 scratch. They mirror the tensor ops
    bit-for-bit: the same accumulation order, the same zero-skip as
    {!Tensor.matmul}, and {!Tensor.round32} at exactly the tensor ops'
    float32 store points; none of them records onto the autodiff tape.
    Weight matrices stream past all active rows once per step, but each
    row is accumulated independently, so per-row outputs are
    bit-identical to {!decoder_fwd} over the full prefix for {e any}
    composition of active slots (see DESIGN.md "Continuous batched
    decode"). *)

val batch_linear :
  linear ->
  active:int array ->
  src:Tensor.buf ->
  dst:Tensor.buf ->
  acc:float array ->
  unit
(** Project row [slot] of [src] (stride d_in) into row [slot] of [dst]
    (stride d_out) for every active slot, streaming each weight row past
    all rows once. [acc] is a float64 accumulator of at least
    [|active| * d_out]. Per-row results are bit-identical to the
    matching rows of {!linear_fwd}. *)

type batch_scratch
(** Reusable per-step scratch shared by all layers of one engine. *)

val batch_scratch :
  slots:int -> d_model:int -> d_ff:int -> capacity:int -> batch_scratch
(** [capacity] bounds the longest KV run attention will scan (max of
    self-attention capacity and encoder memory rows). *)

type batch_dec_cache
(** Per-layer KV cache with [slots] independent request slots, each
    holding its own self-attention run and preprojected encoder
    memory. *)

val batch_dec_cache :
  dec_block -> slots:int -> capacity:int -> cross_capacity:int ->
  batch_dec_cache

val batch_slot_load : batch_dec_cache -> slot:int -> memory:Tensor.t -> unit
(** Reset [slot] and project the encoder memory into its cross K/V
    region — the join half of the continuous-batching join/leave
    protocol. A slot is free for reuse the moment its request finishes;
    no explicit leave is needed at this layer. *)

val batch_dec_step :
  batch_dec_cache ->
  batch_scratch ->
  active:int array ->
  x:Tensor.buf ->
  out:Tensor.buf ->
  unit
(** Advance every active slot one position: row [slot] of [x]
    (slots x d_model, flat) is this layer's input for that slot's next
    position, row [slot] of [out] receives the layer output. *)
