(** GRU encoder-decoder: the "RNN-based VEGA" baseline of Sec. 4.1.2
    (the paper reports UniXcoder beating it by 35.3–77.7% in function
    accuracy). Same I/O contract as {!Transformer}. *)

type config = {
  d_model : int;
  d_hidden : int;
  max_len : int;
  vocab_size : int;
}

type t

val create : ?seed:int -> config -> t
val params : t -> Tensor.t list
val n_params : t -> int

val loss : t -> src:int array -> tgt:int array -> Tensor.t
(** Teacher-forced cross-entropy; run inside {!Tensor.with_tape}. *)

val train_step : t -> Adam.t -> (int array * int array) list -> float

val generate : t -> src:int array -> ?max_out:int -> unit -> int array * float array
(** Greedy decode from the final encoder state. *)
