module T = Tensor

type config = { d_model : int; d_hidden : int; max_len : int; vocab_size : int }

(* one GRU cell over a 1 x d state *)
type cell = {
  wz : Layers.linear;
  uz : Layers.linear;
  wr : Layers.linear;
  ur : Layers.linear;
  wh : Layers.linear;
  uh : Layers.linear;
}

let mk_cell rng ~d_in ~d_h =
  {
    wz = Layers.linear rng ~d_in ~d_out:d_h;
    uz = Layers.linear rng ~d_in:d_h ~d_out:d_h;
    wr = Layers.linear rng ~d_in ~d_out:d_h;
    ur = Layers.linear rng ~d_in:d_h ~d_out:d_h;
    wh = Layers.linear rng ~d_in ~d_out:d_h;
    uh = Layers.linear rng ~d_in:d_h ~d_out:d_h;
  }

let cell_params c =
  List.concat_map Layers.linear_params [ c.wz; c.uz; c.wr; c.ur; c.wh; c.uh ]

let step cell ~x ~h =
  let z = T.sigmoid (T.add (Layers.linear_fwd cell.wz x) (Layers.linear_fwd cell.uz h)) in
  let r = T.sigmoid (T.add (Layers.linear_fwd cell.wr x) (Layers.linear_fwd cell.ur h)) in
  let htilde =
    T.tanh_
      (T.add (Layers.linear_fwd cell.wh x)
         (Layers.linear_fwd cell.uh (T.mul_elt r h)))
  in
  T.add (T.mul_elt (T.one_minus z) h) (T.mul_elt z htilde)

type t = {
  cfg : config;
  emb : T.t;
  enc : cell;
  dec : cell;
  bridge : Layers.linear;  (* encoder final state -> decoder initial state *)
  out_proj : Layers.linear;
}

let create ?(seed = 11) cfg =
  let rng = Vega_util.Rng.create seed in
  {
    cfg;
    emb = T.param rng ~scale:0.08 cfg.vocab_size cfg.d_model;
    enc = mk_cell rng ~d_in:cfg.d_model ~d_h:cfg.d_hidden;
    dec = mk_cell rng ~d_in:cfg.d_model ~d_h:cfg.d_hidden;
    bridge = Layers.linear rng ~d_in:cfg.d_hidden ~d_out:cfg.d_hidden;
    out_proj = Layers.linear rng ~d_in:cfg.d_hidden ~d_out:cfg.vocab_size;
  }

let params t =
  (t.emb :: cell_params t.enc)
  @ cell_params t.dec
  @ Layers.linear_params t.bridge
  @ Layers.linear_params t.out_proj

let n_params t = T.params_count (params t)

let clip arr n = if Array.length arr > n then Array.sub arr 0 n else arr

let encode t src =
  let src = clip src t.cfg.max_len in
  let h = ref (T.zeros 1 t.cfg.d_hidden) in
  Array.iter
    (fun id ->
      let x = T.embed ~table:t.emb [| id |] in
      h := step t.enc ~x ~h:!h)
    src;
  T.tanh_ (Layers.linear_fwd t.bridge !h)

let loss t ~src ~tgt =
  let tgt = clip tgt (t.cfg.max_len - 2) in
  let h0 = encode t src in
  let dec_in = Array.append [| Vocab.e2d |] tgt in
  let targets = Array.append tgt [| Vocab.eos |] in
  let h = ref h0 in
  let logits =
    Array.map
      (fun id ->
        let x = T.embed ~table:t.emb [| id |] in
        h := step t.dec ~x ~h:!h;
        Layers.linear_fwd t.out_proj !h)
      dec_in
  in
  T.cross_entropy ~logits:(T.concat_rows (Array.to_list logits)) ~targets

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

let generate t ~src ?(max_out = 48) () =
  T.with_tape (fun () ->
      let h = ref (encode t src) in
      let out = ref [] and probs = ref [] in
      let n_out = ref 0 in
      let cur = ref Vocab.e2d in
      let continue_ = ref true in
      while !continue_ && !n_out < max_out do
        let x = T.embed ~table:t.emb [| !cur |] in
        h := step t.dec ~x ~h:!h;
        let logits = Layers.linear_fwd t.out_proj !h in
        let n = logits.T.cols in
        let mx = ref neg_infinity in
        for j = 0 to n - 1 do
          mx := Float.max !mx (T.get logits 0 j)
        done;
        let es = Array.init n (fun j -> exp (T.get logits 0 j -. !mx)) in
        let sum = Array.fold_left ( +. ) 0.0 es in
        let best = ref 0 in
        for j = 1 to n - 1 do
          if es.(j) > es.(!best) then best := j
        done;
        if !best = Vocab.eos then continue_ := false
        else begin
          out := !best :: !out;
          probs := (es.(!best) /. sum) :: !probs;
          cur := !best;
          incr n_out
        end
      done;
      (Array.of_list (List.rev !out), Array.of_list (List.rev !probs)))
