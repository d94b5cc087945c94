(* Tests for the from-scratch neural substrate: numerical gradient checks,
   optimizer behavior, vocabulary, transformer overfitting, and the
   incremental float32 decoder. *)

module T = Vega_nn.Tensor
module Rng = Vega_util.Rng

(* numerical gradient check of a scalar-valued computation w.r.t. one
   parameter tensor; eps sized for float32 forward-pass noise *)
let gradcheck ~build param =
  let eps = 1e-3 in
  T.zero_grad param;
  T.with_tape (fun () ->
      let loss = build () in
      T.backward loss);
  let analytic = T.grad_to_array param in
  T.zero_grad param;
  let n = T.numel param in
  let max_err = ref 0.0 in
  for i = 0 to min (n - 1) 7 do
    let saved = T.get_flat param i in
    T.set_flat_ param i (saved +. eps);
    let xp = T.get_flat param i in
    let up = T.with_tape (fun () -> T.to_float (build ())) in
    T.set_flat_ param i (saved -. eps);
    let xm = T.get_flat param i in
    let dn = T.with_tape (fun () -> T.to_float (build ())) in
    T.set_flat_ param i saved;
    (* use the actually-stored float32 perturbations as the step *)
    let numeric = (up -. dn) /. (xp -. xm) in
    let err = Float.abs (numeric -. analytic.(i)) /. Float.max 1.0 (Float.abs numeric) in
    if err > !max_err then max_err := err
  done;
  !max_err

let test_grad_matmul () =
  let rng = Rng.create 1 in
  let a = T.param rng 3 4 and b = T.param rng 4 2 in
  let targets = [| 0; 1; 0 |] in
  let build () = T.cross_entropy ~logits:(T.matmul a b) ~targets in
  Alcotest.(check bool) "matmul grad (a)" true (gradcheck ~build a < 1e-2);
  Alcotest.(check bool) "matmul grad (b)" true (gradcheck ~build b < 1e-2)

let test_grad_layernorm_gelu () =
  let rng = Rng.create 2 in
  let x = T.param rng 2 6 in
  let gain = T.param rng 1 6 and bias = T.param rng 1 6 in
  let w = T.param rng 6 3 in
  let targets = [| 2; 0 |] in
  let build () =
    T.cross_entropy ~logits:(T.matmul (T.gelu (T.layernorm ~gain ~bias x)) w) ~targets
  in
  Alcotest.(check bool) "x grad" true (gradcheck ~build x < 1e-2);
  Alcotest.(check bool) "gain grad" true (gradcheck ~build gain < 1e-2)

let test_grad_softmax_attention_shape () =
  let rng = Rng.create 3 in
  let q = T.param rng 4 8 in
  let at = Vega_nn.Layers.attention rng ~d_model:8 ~heads:2 in
  let w = T.param rng 8 3 in
  let targets = [| 0; 1; 2; 0 |] in
  let build () =
    let y = Vega_nn.Layers.attention_fwd at ~q_input:q ~kv_input:q ~mask:None in
    T.cross_entropy ~logits:(T.matmul y w) ~targets
  in
  Alcotest.(check bool) "attention grad wrt input" true (gradcheck ~build q < 1e-2)

let test_embed_and_positional () =
  let rng = Rng.create 4 in
  let table = T.param rng 10 6 in
  let pos = T.param rng 8 6 in
  let w = T.param rng 6 4 in
  let targets = [| 1; 2; 3 |] in
  let build () =
    let x = T.embed ~table [| 1; 5; 9 |] in
    let x = T.add_rows_positional x pos in
    T.cross_entropy ~logits:(T.matmul x w) ~targets
  in
  Alcotest.(check bool) "embedding grads" true (gradcheck ~build table < 1e-2);
  Alcotest.(check bool) "positional grads" true (gradcheck ~build pos < 1e-2)

let test_adam_decreases_loss () =
  let rng = Rng.create 5 in
  let w = T.param rng 4 3 in
  let x = T.create 5 4 (Array.init 20 (fun i -> float_of_int (i mod 7) /. 7.0)) in
  let targets = [| 0; 1; 2; 0; 1 |] in
  let opt = Vega_nn.Adam.create ~lr:0.05 [ w ] in
  let loss () =
    T.with_tape (fun () ->
        let l = T.cross_entropy ~logits:(T.matmul x w) ~targets in
        T.backward l;
        T.to_float l)
  in
  let l0 = loss () in
  Vega_nn.Adam.step opt;
  for _ = 1 to 30 do
    ignore (loss ());
    Vega_nn.Adam.step opt
  done;
  let l1 = loss () in
  Alcotest.(check bool) "loss decreased" true (l1 < l0 *. 0.8)

let test_vocab () =
  let v = Vega_nn.Vocab.build [ [ "alpha"; "beta" ]; [ "beta"; "gamma" ] ] in
  Alcotest.(check (list string)) "roundtrip" [ "alpha"; "gamma" ]
    (Vega_nn.Vocab.decode v (Vega_nn.Vocab.encode v [ "alpha"; "gamma" ]));
  Alcotest.(check int) "unknown is unk" Vega_nn.Vocab.unk
    (Vega_nn.Vocab.id v "never-seen");
  Alcotest.(check string) "score token" "<cs_10>" (Vega_nn.Vocab.score_token 0.5);
  Alcotest.(check (option (float 1e-9))) "score parse" (Some 1.0)
    (Vega_nn.Vocab.score_of_token "<cs_20>");
  Alcotest.(check (option int)) "copy parse" (Some 3)
    (Vega_nn.Vocab.copy_of_token "<COPY_3>")

let test_transformer_overfits () =
  (* a model of this size must be able to memorize four sequences *)
  let pairs =
    [
      ([ "<CLS>"; "a"; "b" ], [ "<cs_20>"; "x"; "y" ]);
      ([ "<CLS>"; "a"; "c" ], [ "<cs_20>"; "x"; "z" ]);
      ([ "<CLS>"; "d"; "b" ], [ "<cs_0>"; "w" ]);
      ([ "<CLS>"; "d"; "c" ], [ "<cs_0>"; "y"; "y" ]);
    ]
  in
  let cfg =
    {
      Vega.Codebe.tiny_train_config with
      Vega.Codebe.epochs = 120;
      lr = 4e-3;
      batch_size = 4;
    }
  in
  let m = Vega.Codebe.train cfg pairs in
  Alcotest.(check (float 1e-9)) "exact match 1.0" 1.0 (Vega.Codebe.exact_match m pairs)

(* Bare asserts used to escape stage isolation (and vanish under
   -noassert); invariant violations must now raise the typed decoder
   fault the robust ladder can degrade. *)
let test_tensor_faults () =
  let module F = Vega_robust.Fault in
  let expect_fault name f =
    match f () with
    | exception F.Fault (F.Tensor_fault _ as ft) ->
        Alcotest.(check bool)
          (name ^ " is decoder-class") true
          (F.cls_of ft = F.Cdecoder)
    | exception e ->
        Alcotest.failf "%s: expected Tensor_fault, got %s" name
          (Printexc.to_string e)
    | _ -> Alcotest.fail (name ^ ": expected Tensor_fault")
  in
  let rng = Rng.create 11 in
  let a = T.param rng 2 3 and b = T.param rng 2 3 in
  expect_fault "matmul shape mismatch" (fun () -> ignore (T.matmul a b));
  expect_fault "nested with_tape" (fun () ->
      T.with_tape (fun () -> T.with_tape (fun () -> ())));
  expect_fault "backward on non-scalar" (fun () ->
      T.with_tape (fun () -> T.backward a));
  expect_fault "embed out of vocabulary" (fun () ->
      ignore (T.embed ~table:a [| 5 |]));
  (* the tape must be usable again after a fault unwound with_tape *)
  let ok =
    T.with_tape (fun () ->
        let l = T.cross_entropy ~logits:a ~targets:[| 0; 1 |] in
        T.backward l;
        T.to_float l)
  in
  Alcotest.(check bool) "tape recovered" true (Float.is_finite ok)

let test_gru_gradcheck () =
  let cfg = { Vega_nn.Gru.d_model = 6; d_hidden = 8; max_len = 16; vocab_size = 12 } in
  let g = Vega_nn.Gru.create ~seed:3 cfg in
  let src = [| 7; 3; 5 |] and tgt = [| 8; 9 |] in
  (* gradient check w.r.t. the embedding table *)
  let emb = List.hd (Vega_nn.Gru.params g) in
  let build () = Vega_nn.Gru.loss g ~src ~tgt in
  Alcotest.(check bool) "gru grads" true (gradcheck ~build emb < 2e-2)

let test_gru_overfits () =
  let pairs =
    [
      ([ "<CLS>"; "a" ], [ "<cs_20>"; "x" ]);
      ([ "<CLS>"; "b" ], [ "<cs_0>"; "y"; "z" ]);
    ]
  in
  let cfg =
    { Vega.Codebe.tiny_train_config with Vega.Codebe.epochs = 150; lr = 8e-3; batch_size = 2 }
  in
  let m = Vega.Codebe.train ~arch:Vega.Codebe.Rnn cfg pairs in
  Alcotest.(check (float 1e-9)) "rnn exact match" 1.0 (Vega.Codebe.exact_match m pairs)

(* KV cache: feeding one decoder its own source and tokens must
   reproduce the last row of the full re-decode bit-for-bit, for every
   prefix length up to max_len; one step more must fault. *)
let test_kv_cache_bitident () =
  let module NN = Vega_nn.Transformer in
  let cfg =
    {
      NN.d_model = 16;
      heads = 4;
      d_ff = 32;
      n_layers = 2;
      max_len = 24;
      vocab_size = 30;
    }
  in
  let m = NN.create ~seed:42 cfg in
  let src = Array.init 10 (fun i -> ((i * 5) + 1) mod cfg.vocab_size) in
  let token k =
    if k = 0 then Vega_nn.Vocab.e2d else ((k * 7) + 3) mod cfg.vocab_size
  in
  let memory = NN.encode m src in
  let dec = NN.start m ~src in
  for k = 0 to cfg.max_len - 1 do
    NN.feed dec (token k);
    let logits = NN.decode_logits m ~memory (Array.init (k + 1) token) in
    Array.iteri
      (fun j v ->
        let full = T.get logits k j in
        if Int64.bits_of_float v <> Int64.bits_of_float full then
          Alcotest.failf "step %d col %d: cached %h <> full %h" k j v full)
      (NN.logits dec)
  done;
  match NN.feed dec 3 with
  | () -> Alcotest.fail "step past max_len accepted"
  | exception Vega_robust.Fault.Fault (Vega_robust.Fault.Tensor_fault _) -> ()

(* A forced max_len-deep decode (no EOS stop), the worst case the
   decoder sees, since full re-decode re-runs the whole prefix per
   token: every incremental row is bit-identical to the last row of
   [decode_logits] over the same prefix, and the decoder is at least 3x
   faster, best of 3 runs a side. *)
let test_decode_speedup_floor () =
  let module NN = Vega_nn.Transformer in
  let cfg =
    {
      NN.d_model = 32;
      heads = 4;
      d_ff = 64;
      n_layers = 2;
      max_len = 96;
      vocab_size = 64;
    }
  in
  let m = NN.create ~seed:7 cfg in
  let src = Array.init 24 (fun k -> ((k * 5) + 1) mod cfg.vocab_size) in
  let forced k = ((k * 7) + 3) mod cfg.vocab_size in
  let engine () =
    let dec = NN.start m ~src in
    Array.init cfg.max_len (fun k ->
        NN.feed dec (forced k);
        NN.logits dec)
  in
  let full () =
    let memory = NN.encode m src in
    Array.init cfg.max_len (fun k ->
        let logits = NN.decode_logits m ~memory (Array.init (k + 1) forced) in
        Array.init cfg.vocab_size (T.get logits k))
  in
  (* a clean heap before each run, so GC debt left by one side is never
     charged to the other *)
  let best f =
    let rows = ref [||] and secs = ref infinity in
    for _ = 1 to 3 do
      Gc.full_major ();
      let r, s = Vega_util.Timer.time f in
      rows := r;
      secs := Float.min !secs s
    done;
    (!rows, !secs)
  in
  let engine_rows, engine_s = best engine in
  let full_rows, full_s = best full in
  Array.iteri
    (fun k row ->
      Array.iteri
        (fun j v ->
          let f = full_rows.(k).(j) in
          if Int64.bits_of_float v <> Int64.bits_of_float f then
            Alcotest.failf "step %d col %d: engine %h <> full %h" k j v f)
        row)
    engine_rows;
  let speedup = full_s /. engine_s in
  if speedup < 3.0 then
    Alcotest.failf "engine %.2fx full re-decode (%.4f s vs %.4f s), floor 3x"
      speedup engine_s full_s

(* Shared small model for the decode tests. *)
let small_cfg =
  {
    Vega_nn.Transformer.d_model = 16;
    heads = 2;
    d_ff = 32;
    n_layers = 2;
    max_len = 32;
    vocab_size = 26;
  }

let small_model = lazy (Vega_nn.Transformer.create ~seed:5 small_cfg)

(* Equal ids and, bit for bit, equal probabilities. *)
let same_decode (eids, eprobs) (gids, gprobs) =
  eids = gids
  && Array.length eprobs = Array.length gprobs
  && Array.for_all2
       (fun e g -> Int64.bits_of_float e = Int64.bits_of_float g)
       eprobs gprobs

(* [generate] runs the incremental decoder; for several sources and
   output budgets (up to and past max_len) it must be bit-identical to
   the uncached reference decode. *)
let test_generate_cached_equals_uncached () =
  let m = Lazy.force small_model in
  List.iter
    (fun (len, max_out) ->
      let src =
        Array.init len (fun i -> ((i * 3) + len) mod small_cfg.vocab_size)
      in
      let ids_u, probs_u =
        Vega_nn.Transformer.generate_uncached m ~src ~max_out ()
      in
      let ids_c, probs_c = Vega_nn.Transformer.generate m ~src ~max_out () in
      Alcotest.(check (array int)) "same ids" ids_u ids_c;
      Alcotest.(check int) "same count" (Array.length probs_u)
        (Array.length probs_c);
      Array.iteri
        (fun i p ->
          if Int64.bits_of_float p <> Int64.bits_of_float probs_u.(i) then
            Alcotest.failf "src %d prob %d: cached %h <> uncached %h" len i p
              probs_u.(i))
        probs_c)
    [ (1, 5); (8, 30); (12, 40) ]

(* The decoder driven by hand, one request (feed, pick, stop at EOS or
   the budget), must be bit-identical to the uncached reference
   decode. *)
let test_decoder_by_hand () =
  let module NN = Vega_nn.Transformer in
  let m = Lazy.force small_model in
  let src = Array.init 8 (fun i -> ((i * 3) + 2) mod small_cfg.vocab_size) in
  let ids_u, probs_u = NN.generate_uncached m ~src ~max_out:30 () in
  let dec = NN.start m ~src in
  let rec go tok n acc =
    if n = 30 then List.rev acc
    else begin
      NN.feed dec tok;
      let best, p = NN.pick dec in
      if best = Vega_nn.Vocab.eos then List.rev acc
      else go best (n + 1) ((best, p) :: acc)
    end
  in
  let picks = go Vega_nn.Vocab.e2d 0 [] in
  let ids_b = Array.of_list (List.map fst picks) in
  let probs_b = Array.of_list (List.map snd picks) in
  Alcotest.(check (array int)) "same ids" ids_u ids_b;
  Alcotest.(check int) "same count" (Array.length probs_u) (Array.length probs_b);
  Array.iteri
    (fun i p ->
      if Int64.bits_of_float p <> Int64.bits_of_float probs_u.(i) then
        Alcotest.failf "prob %d: decoder %h <> uncached %h" i p probs_u.(i))
    probs_b

(* Property: over random sources (up to past max_len, which clips) and
   output budgets (down to none, up to past max_len), [generate]
   matches the uncached reference decode bit for bit: ids and every
   token probability. *)
let generate_prop =
  QCheck.Test.make ~name:"generate = uncached over random sources" ~count:100
    QCheck.(
      pair
        (array_of_size
           Gen.(int_range 1 40)
           (int_range 0 (small_cfg.vocab_size - 1)))
        (int_range 0 40))
    (fun (src, max_out) ->
      let m = Lazy.force small_model in
      same_decode
        (Vega_nn.Transformer.generate_uncached m ~src ~max_out ())
        (Vega_nn.Transformer.generate m ~src ~max_out ()))

(* Four domains decode at once, as a daemon's decode slots do: every
   result is bit-identical to the uncached reference, and an
   out-of-vocabulary source faults its own caller only. *)
let test_generate_concurrent () =
  let module NN = Vega_nn.Transformer in
  let m = Lazy.force small_model in
  let srcs =
    Array.init 4 (fun i ->
        Array.init
          (3 + (2 * i))
          (fun j -> ((i * 7) + (j * 3) + 2) mod small_cfg.vocab_size))
  in
  let expected =
    Array.map (fun src -> NN.generate_uncached m ~src ~max_out:24 ()) srcs
  in
  let rounds = 20 in
  let run i () =
    List.init rounds (fun _ ->
        let good =
          let got = NN.generate m ~src:srcs.(i) ~max_out:24 () in
          if same_decode expected.(i) got then "same"
          else "differs"
        in
        (* domain 0 also submits a bad source every round *)
        if i > 0 then good
        else
          match NN.generate m ~src:[| 1; 2; 999 |] ~max_out:24 () with
          | _ -> good ^ ", bad source returned"
          | exception Vega_robust.Fault.Fault (Vega_robust.Fault.Tensor_fault _)
            ->
              good ^ ", tensor fault"
          | exception e -> good ^ ", " ^ Printexc.to_string e)
  in
  let doms = Array.init 4 (fun i -> Domain.spawn (run i)) in
  Array.iteri
    (fun i d ->
      Alcotest.(check (list string))
        (Printf.sprintf "domain %d" i)
        (List.init rounds (fun _ ->
             if i = 0 then "same, tensor fault" else "same"))
        (Domain.join d))
    doms

(* Concurrent with_tape calls in separate domains must not interleave:
   each domain's losses and accumulated gradients must match the
   single-domain reference bit-for-bit. *)
let test_tape_domain_safety () =
  let run seed =
    let rng = Rng.create seed in
    let a = T.param rng 4 4 and b = T.param rng 4 4 in
    let targets = [| 0; 1; 2; 3 |] in
    let acc = ref 0.0 in
    for _ = 1 to 40 do
      T.with_tape (fun () ->
          let l = T.cross_entropy ~logits:(T.matmul a b) ~targets in
          T.backward l;
          acc := !acc +. T.to_float l)
    done;
    (!acc, T.grad_to_array a)
  in
  let ref1 = run 1 and ref2 = run 2 in
  let d1 = Domain.spawn (fun () -> run 1) in
  let d2 = Domain.spawn (fun () -> run 2) in
  let got1 = Domain.join d1 and got2 = Domain.join d2 in
  let check_pair name (el, eg) (gl, gg) =
    if Int64.bits_of_float el <> Int64.bits_of_float gl then
      Alcotest.failf "%s: loss %h <> %h" name gl el;
    Array.iteri
      (fun i e ->
        if Int64.bits_of_float e <> Int64.bits_of_float gg.(i) then
          Alcotest.failf "%s: grad %d differs" name i)
      eg
  in
  check_pair "domain 1" ref1 got1;
  check_pair "domain 2" ref2 got2

let suite =
  [
    Alcotest.test_case "gradcheck matmul+ce" `Quick test_grad_matmul;
    Alcotest.test_case "gradcheck layernorm+gelu" `Quick test_grad_layernorm_gelu;
    Alcotest.test_case "gradcheck attention" `Quick test_grad_softmax_attention_shape;
    Alcotest.test_case "gradcheck embeddings" `Quick test_embed_and_positional;
    Alcotest.test_case "adam decreases loss" `Quick test_adam_decreases_loss;
    Alcotest.test_case "vocab" `Quick test_vocab;
    Alcotest.test_case "transformer overfits" `Slow test_transformer_overfits;
    Alcotest.test_case "tensor faults are typed" `Quick test_tensor_faults;
    Alcotest.test_case "gru gradcheck" `Quick test_gru_gradcheck;
    Alcotest.test_case "gru overfits" `Slow test_gru_overfits;
    Alcotest.test_case "kv cache bit-identical" `Quick test_kv_cache_bitident;
    Alcotest.test_case "decode engine >= 3x full re-decode" `Quick
      test_decode_speedup_floor;
    Alcotest.test_case "generate cached = uncached" `Quick
      test_generate_cached_equals_uncached;
    Alcotest.test_case "batch=1 bit-identical to uncached" `Quick
      test_decoder_by_hand;
    QCheck_alcotest.to_alcotest generate_prop;
    Alcotest.test_case "concurrent generate = uncached" `Quick
      test_generate_concurrent;
    Alcotest.test_case "tape domain-safe" `Quick test_tape_domain_safety;
  ]
