module T = Tensor
module A1 = Bigarray.Array1

let fail op detail =
  raise (Vega_robust.Fault.Fault (Vega_robust.Fault.Tensor_fault { op; detail }))

type config = {
  d_model : int;
  heads : int;
  d_ff : int;
  n_layers : int;
  max_len : int;
  vocab_size : int;
}

type t = {
  cfg : config;
  tok_emb : T.t;
  pos_emb : T.t;
  enc : Layers.block array;
  dec : Layers.dec_block array;
  out_proj : Layers.linear;
}

let create ?(seed = 7) cfg =
  let rng = Vega_util.Rng.create seed in
  {
    cfg;
    tok_emb = T.param rng ~scale:0.05 cfg.vocab_size cfg.d_model;
    pos_emb = T.param rng ~scale:0.05 cfg.max_len cfg.d_model;
    enc =
      Array.init cfg.n_layers (fun _ ->
          Layers.encoder_block rng ~d_model:cfg.d_model ~heads:cfg.heads
            ~d_ff:cfg.d_ff);
    dec =
      Array.init cfg.n_layers (fun _ ->
          Layers.decoder_block rng ~d_model:cfg.d_model ~heads:cfg.heads
            ~d_ff:cfg.d_ff);
    out_proj = Layers.linear rng ~d_in:cfg.d_model ~d_out:cfg.vocab_size;
  }

let config t = t.cfg

let params t =
  [ t.tok_emb; t.pos_emb ]
  @ List.concat_map Layers.block_params (Array.to_list t.enc)
  @ List.concat_map Layers.dec_block_params (Array.to_list t.dec)
  @ Layers.linear_params t.out_proj

let n_params t = T.params_count (params t)

let clip arr max_len = if Array.length arr > max_len then Array.sub arr 0 max_len else arr

let encode t src =
  let src = clip src t.cfg.max_len in
  let x = T.embed ~table:t.tok_emb src in
  let x = T.add_rows_positional x t.pos_emb in
  Array.fold_left (fun x b -> Layers.encoder_fwd b x) x t.enc

let decode_logits t ~memory dec_ids =
  let x = T.embed ~table:t.tok_emb dec_ids in
  let x = T.add_rows_positional x t.pos_emb in
  let x =
    Array.fold_left (fun x b -> Layers.decoder_fwd b ~x ~memory) x t.dec
  in
  Layers.linear_fwd t.out_proj x

let loss t ~src ~tgt =
  let tgt = clip tgt (t.cfg.max_len - 2) in
  let memory = encode t src in
  (* decoder input: [E2D] tgt...; targets: tgt... [EOS] *)
  let dec_in = Array.append [| Vocab.e2d |] tgt in
  let targets = Array.append tgt [| Vocab.eos |] in
  let logits = decode_logits t ~memory dec_in in
  T.cross_entropy ~logits ~targets

let train_step t opt batch =
  (* single counted pass: sum and count in one walk of the batch *)
  let total = ref 0.0 and count = ref 0 in
  List.iter
    (fun (src, tgt) ->
      T.with_tape (fun () ->
          let l = loss t ~src ~tgt in
          total := !total +. T.to_float l;
          incr count;
          T.backward l))
    batch;
  Adam.step opt;
  !total /. float_of_int (max 1 !count)

(* Softmax + argmax over the [n] logits at [off] in [logits], read in
   place: nothing the size of the vocabulary is allocated per token. The
   denominator sums the exponentials in ascending order, and strict [>]
   keeps the first of tied maxima. *)
let greedy (logits : T.buf) ~off ~n =
  let mx = ref neg_infinity in
  for j = 0 to n - 1 do
    mx := Float.max !mx (A1.get logits (off + j))
  done;
  let sum = ref 0.0 and best = ref 0 and best_e = ref 0.0 in
  for j = 0 to n - 1 do
    let e = exp (A1.get logits (off + j) -. !mx) in
    sum := !sum +. e;
    if j = 0 || e > !best_e then begin
      best := j;
      best_e := e
    end
  done;
  (!best, !best_e /. !sum)

(* {1 Incremental decoder}

   One request's decode state: a KV cache per decoder layer and
   preallocated buffers, so [feed] advances one position through all
   layers over {!Layers.dec_step}'s zero-allocation kernels. Its logits
   are bit-identical to the last row of [decode_logits] over the same
   prefix (DESIGN.md "KV-cache bit-identity invariants"). This is the
   only incremental decoder; [generate] runs it. *)

type decoder = {
  dm : t;
  caches : Layers.dec_cache array;  (* one per decoder layer *)
  scr : Layers.scratch;
  x : T.buf;  (* d_model ping *)
  y : T.buf;  (* d_model pong *)
  logits : T.buf;  (* vocab *)
  lacc : float array;  (* vocab f64 accumulator *)
  mutable pos : int;
}

(* the encoder runs off-tape: outside [with_tape] the tensor ops record
   nothing, so a decoder can start on any domain *)
let start t ~src =
  let memory = encode t src in
  let cfg = t.cfg in
  {
    dm = t;
    caches =
      Array.map
        (fun b -> Layers.dec_cache b ~capacity:cfg.max_len ~memory)
        t.dec;
    scr =
      Layers.scratch ~d_model:cfg.d_model ~d_ff:cfg.d_ff ~capacity:cfg.max_len;
    x = T.buf_create cfg.d_model;
    y = T.buf_create cfg.d_model;
    logits = T.buf_create cfg.vocab_size;
    lacc = Array.make cfg.vocab_size 0.0;
    pos = 0;
  }

let feed dec id =
  let t = dec.dm in
  let d = t.cfg.d_model in
  if not (id >= 0 && id < t.cfg.vocab_size) then
    fail "feed"
      (Printf.sprintf "token id %d outside vocabulary of %d" id
         t.cfg.vocab_size);
  if dec.pos >= t.cfg.max_len then
    fail "feed" (Printf.sprintf "decode past max_len %d" t.cfg.max_len);
  for j = 0 to d - 1 do
    (* the float32 store rounds the f64 sum — add_rows_positional's
       store point *)
    A1.set dec.x j
      (T.get_flat t.tok_emb ((id * d) + j)
      +. T.get_flat t.pos_emb ((dec.pos * d) + j))
  done;
  dec.pos <- dec.pos + 1;
  let cur = ref dec.x and nxt = ref dec.y in
  Array.iter
    (fun c ->
      Layers.dec_step c dec.scr ~x:!cur ~out:!nxt;
      let tmp = !cur in
      cur := !nxt;
      nxt := tmp)
    dec.caches;
  Layers.linear_row t.out_proj ~src:!cur ~dst:dec.logits ~acc:dec.lacc

let logits dec = Array.init dec.dm.cfg.vocab_size (A1.get dec.logits)
let pick dec = greedy dec.logits ~off:0 ~n:dec.dm.cfg.vocab_size

let generate t ~src ?(max_out = 48) () =
  let max_out = min max_out (t.cfg.max_len - 2) in
  if max_out <= 0 then ([||], [||])
  else begin
    let dec = start t ~src in
    let out = ref [] and probs = ref [] and cur = ref Vocab.e2d in
    let n_out = ref 0 and stop = ref false in
    while (not !stop) && !n_out < max_out do
      feed dec !cur;
      let best, p = pick dec in
      if best = Vocab.eos then stop := true
      else begin
        out := best :: !out;
        probs := p :: !probs;
        cur := best;
        incr n_out
      end
    done;
    (Array.of_list (List.rev !out), Array.of_list (List.rev !probs))
  end

let generate_uncached t ~src ?(max_out = 48) () =
  let max_out = min max_out (t.cfg.max_len - 2) in
  T.with_tape (fun () ->
      let memory = encode t src in
      let out = ref [] and probs = ref [] in
      let n_out = ref 0 in
      let continue_ = ref true in
      while !continue_ && !n_out < max_out do
        let dec_in = Array.of_list (Vocab.e2d :: List.rev !out) in
        let logits = decode_logits t ~memory dec_in in
        let n = logits.T.cols in
        let best, p =
          greedy logits.T.data ~off:((logits.T.rows - 1) * n) ~n
        in
        if best = Vocab.eos then continue_ := false
        else begin
          out := best :: !out;
          probs := p :: !probs;
          incr n_out
        end
      done;
      (Array.of_list (List.rev !out), Array.of_list (List.rev !probs)))
