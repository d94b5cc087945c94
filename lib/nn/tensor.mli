(** Minimal reverse-mode autograd over 2-D float32 tensors.

    This is the substrate for CodeBE-mini, the from-scratch transformer
    that stands in for UniXcoder (see DESIGN.md). Tensors are row-major
    [rows x cols] over flat unboxed [Bigarray] float32 storage; a
    domain-local tape records operations (newest first) and [backward]
    replays it in reverse. Parameters are tensors created with [param];
    their gradients accumulate across examples until {!Adam} steps and
    {!zero_grads} clears them.

    Numeric discipline: storage is float32, arithmetic is float64.
    Reads widen exactly; every op rounds each output element to float32
    exactly once per store point (reductions accumulate in float64
    scratch first). The batched decode kernels in {!Layers} mirror those
    store points with {!round32}, which makes the decode engine
    bit-identical to these ops for any batch composition. Invariant violations raise
    [Vega_robust.Fault.Fault (Tensor_fault _)] (decoder class) so the
    degradation ladder absorbs them instead of an [Assert_failure]
    killing the process. *)

type buf = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Flat unboxed float32 storage, row-major. *)

type t = {
  data : buf;
  rows : int;
  cols : int;
  grad : buf;  (** same length as [data]; zeros unless reached *)
  is_param : bool;
}

val buf_create : int -> buf
(** Zero-filled flat float32 buffer (for scratch/caches in {!Layers}). *)

val round32 : float -> float
(** Round a float64 to the nearest float32 — the exact conversion a
    store into {!buf} performs. The decode kernels use it to mirror
    tensor-op store points bit-for-bit. *)

val create : int -> int -> float array -> t
(** Constant (no-grad-needed leaf); array length must be rows*cols.
    Values are rounded to float32. *)

val zeros : int -> int -> t
val param : Vega_util.Rng.t -> ?scale:float -> int -> int -> t
(** Gaussian-initialized trainable parameter; default scale
    [1/sqrt cols]. *)

val numel : t -> int
val get : t -> int -> int -> float
val get_flat : t -> int -> float
val set_flat_ : t -> int -> float -> unit
(** Flat-index access into the row-major storage. *)

val grad_flat : t -> int -> float
val zero_grad : t -> unit
val to_array : t -> float array
val grad_to_array : t -> float array
(** Boxed copies, for tests. *)

(** {1 Tape} *)

val with_tape : (unit -> 'a) -> 'a
(** Run a forward+backward pass with a fresh tape; the tape is discarded
    afterwards. Nested calls are not allowed. The tape is domain-local:
    concurrent [with_tape] calls in separate domains do not interleave,
    so read-only model state can be shared across domains. *)

val backward : t -> unit
(** Seed the (scalar) tensor's gradient with 1 and backpropagate through
    the current tape. *)

(** {1 Ops} — all differentiable *)

val matmul : t -> t -> t
val add : t -> t -> t
(** Elementwise; if [b] has one row it broadcasts across rows of [a]. *)

val scale : float -> t -> t
val gelu : t -> t
val sigmoid : t -> t
val tanh_ : t -> t

val mul_elt : t -> t -> t
(** Elementwise (Hadamard) product; shapes must match. *)

val one_minus : t -> t
(** [1 - x], elementwise. *)

val softmax_rows : ?mask:(int -> int -> bool) -> t -> t
(** Row softmax; [mask i j = false] forces logit (i,j) to -inf. *)

val layernorm : gain:t -> bias:t -> t -> t
(** Per-row normalization; [gain]/[bias] are 1 x cols parameters. *)

val transpose : t -> t
val rows_slice : t -> int -> int -> t
(** [rows_slice t lo n] — differentiable view copy of n rows from lo. *)

val concat_rows : t list -> t
val embed : table:t -> int array -> t
(** Gather rows of [table] by token ids. *)

val cross_entropy : logits:t -> targets:int array -> t
(** Mean token cross-entropy; returns a 1x1 tensor. Softmax fused. *)

val add_rows_positional : t -> t -> t
(** [add_rows_positional x pos] adds [pos]'s first [rows x] rows to [x]
    (positional-embedding addition; gradients flow into both). *)

val to_float : t -> float
(** Value of a 1x1 tensor. *)

val params_count : t list -> int
