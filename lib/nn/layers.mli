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

(** {1 Incremental decode}

    Zero-allocation kernels advancing one request's decode by one
    position over preallocated float32 scratch. They mirror the tensor
    ops bit-for-bit: the same accumulation order, the same zero-skip as
    {!Tensor.matmul}, and {!Tensor.round32} at exactly the tensor ops'
    float32 store points; none of them records onto the autodiff tape.
    Each output row is therefore bit-identical to the matching row of
    {!decoder_fwd} over the full prefix (see DESIGN.md "KV-cache
    bit-identity invariants"). *)

val linear_row :
  ?src_off:int ->
  ?dst_off:int ->
  linear ->
  src:Tensor.buf ->
  dst:Tensor.buf ->
  acc:float array ->
  unit
(** Project the d_in floats of [src] at [src_off] (default 0) into the
    d_out floats of [dst] at [dst_off] (default 0). [acc] is a float64
    accumulator of at least d_out floats. The result is bit-identical to
    the matching row of {!linear_fwd}. *)

type scratch
(** Reusable per-step scratch shared by all layers of one decoder. *)

val scratch : d_model:int -> d_ff:int -> capacity:int -> scratch
(** [capacity] bounds the longest KV run attention will scan (self
    positions and encoder memory rows). *)

type dec_cache
(** One decoder layer's KV cache for one request: its self-attention
    run and its preprojected encoder memory. *)

val dec_cache : dec_block -> capacity:int -> memory:Tensor.t -> dec_cache
(** An empty self-attention run of [capacity] positions, with the
    encoder [memory] (at most [capacity] rows) projected into the cross
    K/V rows. *)

val dec_step : dec_cache -> scratch -> x:Tensor.buf -> out:Tensor.buf -> unit
(** Advance the request one position: [x] (d_model floats) is this
    layer's input for the next position, [out] receives the layer
    output. Raises [Fault (Tensor_fault _)] once [capacity] positions
    are used. *)
