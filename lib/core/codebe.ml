module Nn = Vega_nn

type train_config = {
  epochs : int;
  lr : float;
  batch_size : int;
  d_model : int;
  heads : int;
  d_ff : int;
  n_layers : int;
  max_len : int;
  max_pairs : int;
  seed : int;
}

let default_train_config =
  {
    epochs = 14;
    lr = 2.5e-3;
    batch_size = 16;
    d_model = 40;
    heads = 4;
    d_ff = 96;
    n_layers = 2;
    max_len = 80;
    max_pairs = 7000;
    seed = 42;
  }

let tiny_train_config =
  {
    epochs = 4;
    lr = 3e-3;
    batch_size = 8;
    d_model = 16;
    heads = 2;
    d_ff = 32;
    n_layers = 1;
    max_len = 80;
    max_pairs = 200;
    seed = 42;
  }

type arch = Transformer | Rnn

type model = Mtrans of Nn.Transformer.t | Mgru of Nn.Gru.t

type t = { vocab : Nn.Vocab.t; model : model }

let src_log = Logs.Src.create "vega.codebe" ~doc:"CodeBE training"

module Log = (val Logs.src_log src_log : Logs.LOG)

let train ?(arch = Transformer) ?progress cfg pairs =
  let vocab = Nn.Vocab.build (List.concat_map (fun (i, o) -> [ i; o ]) pairs) in
  let model =
    match arch with
    | Transformer ->
        Mtrans
          (Nn.Transformer.create ~seed:cfg.seed
             {
               Nn.Transformer.d_model = cfg.d_model;
               heads = cfg.heads;
               d_ff = cfg.d_ff;
               n_layers = cfg.n_layers;
               max_len = cfg.max_len;
               vocab_size = Nn.Vocab.size vocab;
             })
    | Rnn ->
        Mgru
          (Nn.Gru.create ~seed:cfg.seed
             {
               Nn.Gru.d_model = cfg.d_model;
               d_hidden = 2 * cfg.d_ff / 3 * 2;
               max_len = cfg.max_len;
               vocab_size = Nn.Vocab.size vocab;
             })
  in
  let model_params =
    match model with
    | Mtrans m -> Nn.Transformer.params m
    | Mgru m -> Nn.Gru.params m
  in
  let opt = Nn.Adam.create ~lr:cfg.lr model_params in
  let encoded =
    Array.of_list
      (List.map
         (fun (i, o) -> (Nn.Vocab.encode vocab i, Nn.Vocab.encode vocab o))
         pairs)
  in
  let rng = Vega_util.Rng.create (cfg.seed + 1) in
  for epoch = 1 to cfg.epochs do
    (* inverse-linear learning-rate decay *)
    Nn.Adam.set_lr opt (cfg.lr /. (1.0 +. (float_of_int (epoch - 1) /. 5.0)));
    Vega_util.Rng.shuffle rng encoded;
    let n = min cfg.max_pairs (Array.length encoded) in
    let total = ref 0.0 and batches = ref 0 in
    let i = ref 0 in
    while !i < n do
      let stop = min n (!i + cfg.batch_size) in
      let batch = Array.to_list (Array.sub encoded !i (stop - !i)) in
      let l =
        match model with
        | Mtrans m -> Nn.Transformer.train_step m opt batch
        | Mgru m -> Nn.Gru.train_step m opt batch
      in
      total := !total +. l;
      incr batches;
      i := stop
    done;
    let mean = !total /. float_of_int (max 1 !batches) in
    Log.info (fun m -> m "epoch %d: loss %.4f" epoch mean);
    match progress with Some f -> f epoch mean | None -> ()
  done;
  { vocab; model }

let infer t input =
  (* inputs already start with <CLS> (Featrep.input_of) *)
  let src = Nn.Vocab.encode t.vocab input in
  let ids, probs =
    match t.model with
    | Mtrans m -> Nn.Transformer.generate m ~src ()
    | Mgru m -> Nn.Gru.generate m ~src ()
  in
  (Nn.Vocab.decode t.vocab ids, probs)

let vocab t = t.vocab

let n_params t =
  match t.model with
  | Mtrans m -> Nn.Transformer.n_params m
  | Mgru m -> Nn.Gru.n_params m

let exact_match t pairs =
  match pairs with
  | [] -> 1.0
  | _ ->
      let hits =
        List.fold_left
          (fun acc (i, o) ->
            let out, _ = infer t i in
            if out = o then acc + 1 else acc)
          0 pairs
      in
      float_of_int hits /. float_of_int (List.length pairs)

let mean_token_prob probs =
  (* NaN/infinite entries are dropped rather than averaged: a single
     poisoned probability must not poison the statement confidence *)
  let sum = ref 0.0 and n = ref 0 in
  Array.iter
    (fun p ->
      if Float.is_finite p then begin
        sum := !sum +. p;
        incr n
      end)
    probs;
  if Array.length probs = 0 then 1.0
  else if !n = 0 then 0.0
  else Float.max 0.0 (Float.min 1.0 (!sum /. float_of_int !n))
