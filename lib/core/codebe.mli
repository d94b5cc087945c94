(** CodeBE: the fine-tuned model component (Sec. 3.3).

    Wraps {!Vega_nn.Transformer} with the vocabulary built from training
    sequences, mini-batch training with Adam + cross-entropy, greedy
    inference with per-token probabilities, and the Exact Match metric
    used on the verification set (Sec. 4.1.2). *)

type t

type train_config = {
  epochs : int;
  lr : float;
  batch_size : int;
  d_model : int;
  heads : int;
  d_ff : int;
  n_layers : int;
  max_len : int;
  max_pairs : int;  (** subsample bound on training pairs per epoch *)
  seed : int;
}

val default_train_config : train_config
val tiny_train_config : train_config
(** Small configuration for unit tests. *)

type arch =
  | Transformer  (** CodeBE-mini, the UniXcoder stand-in (default) *)
  | Rnn  (** GRU seq2seq: the "RNN-based VEGA" baseline of Sec. 4.1.2 *)

val train :
  ?arch:arch ->
  ?progress:(int -> float -> unit) ->
  train_config ->
  (string list * string list) list ->
  t
(** [train cfg pairs] — fine-tune on (input tokens, output tokens). *)

val infer : t -> string list -> string list * float array
(** Greedy decode: output tokens and their probabilities. Each call
    decodes one request on the calling domain; concurrent calls are
    safe. *)

val vocab : t -> Vega_nn.Vocab.t
val n_params : t -> int

val exact_match : t -> (string list * string list) list -> float
(** Fraction of pairs whose greedy decode equals the reference. *)

val mean_token_prob : float array -> float
(** Geometric-mean-free simple mean used for confidence blending. *)
