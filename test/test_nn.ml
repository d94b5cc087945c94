(* Tests for the from-scratch neural substrate: numerical gradient checks,
   optimizer behavior, vocabulary, transformer overfitting, and the
   batched float32 decode engine. *)

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

let test_checkpoint_roundtrip () =
  let rng = Rng.create 9 in
  let a = T.param rng 3 4 and b = T.param rng 2 2 in
  let path = Filename.temp_file "vega" ".ckpt" in
  Vega_nn.Checkpoint.save ~path ~tokens:[ "alpha"; "beta" ] [ a; b ];
  let a2 = T.zeros 3 4 and b2 = T.zeros 2 2 in
  let tokens = Vega_nn.Checkpoint.load ~path [ a2; b2 ] in
  Sys.remove path;
  Alcotest.(check (list string)) "tokens" [ "alpha"; "beta" ] tokens;
  Alcotest.(check (array (float 0.0))) "a data" (T.to_array a) (T.to_array a2);
  Alcotest.(check (array (float 0.0))) "b data" (T.to_array b) (T.to_array b2)

let test_checkpoint_shape_mismatch () =
  let rng = Rng.create 10 in
  let a = T.param rng 3 4 and b = T.param rng 2 2 in
  let path = Filename.temp_file "vega" ".ckpt" in
  Vega_nn.Checkpoint.save ~path [ a; b ] ;
  (* first target matches, second does not: the loader must fail with a
     typed shape mismatch and leave BOTH tensors untouched (validation
     happens before any commit) *)
  let ok = T.zeros 3 4 and wrong = T.zeros 4 1 in
  T.set_flat_ ok 0 42.0;
  (match Vega_nn.Checkpoint.load ~path [ ok; wrong ] with
  | exception
      Vega_nn.Checkpoint.Mismatch (Vega_nn.Checkpoint.Tensor_shape { index; _ })
    ->
      Alcotest.(check int) "mismatch index" 1 index
  | _ -> Alcotest.fail "expected Mismatch (Tensor_shape _)");
  Alcotest.(check (float 0.0)) "matching tensor untouched" 42.0 (T.get_flat ok 0);
  Sys.remove path

let test_checkpoint_count_mismatch () =
  let rng = Rng.create 12 in
  let a = T.param rng 2 2 in
  let path = Filename.temp_file "vega" ".ckpt" in
  Vega_nn.Checkpoint.save ~path [ a ];
  (match Vega_nn.Checkpoint.load ~path [ T.zeros 2 2; T.zeros 2 2 ] with
  | exception
      Vega_nn.Checkpoint.Mismatch
        (Vega_nn.Checkpoint.Tensor_count { ckpt; model })
    ->
      Alcotest.(check int) "ckpt count" 1 ckpt;
      Alcotest.(check int) "model count" 2 model
  | _ -> Alcotest.fail "expected Mismatch (Tensor_count _)");
  Sys.remove path

(* Legacy v1 checkpoints (interleaved dims + float64 payloads) must
   still load, with values rounded to float32. *)
let test_checkpoint_v1_compat () =
  let path = Filename.temp_file "vega" ".ckpt" in
  let values = [| 0.1; -2.5; 3.25; 1e-3 |] in
  let oc = open_out_bin path in
  output_string oc "VEGACKPT1";
  output_binary_int oc 1;
  output_binary_int oc 3;
  output_string oc "tok";
  output_binary_int oc 1;
  output_binary_int oc 2;
  output_binary_int oc 2;
  Array.iter
    (fun v ->
      let bits = Int64.bits_of_float v in
      for k = 0 to 7 do
        output_char oc
          (Char.chr
             (Int64.to_int
                (Int64.logand (Int64.shift_right_logical bits (8 * k)) 0xFFL)))
      done)
    values;
  close_out oc;
  let p = T.zeros 2 2 in
  let tokens = Vega_nn.Checkpoint.load ~path [ p ] in
  Sys.remove path;
  Alcotest.(check (list string)) "v1 tokens" [ "tok" ] tokens;
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "v1 value %d rounds to float32" i)
        (T.round32 v) (T.get_flat p i))
    values

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

(* KV cache: stepping a one-slot engine must reproduce the last row of
   a full re-decode bit-for-bit, for every prefix length up to max_len;
   one step more must fault. *)
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
  let memory = NN.encode m src in
  let b = NN.new_batch m ~slots:1 in
  let slot = NN.batch_join b ~src in
  let prefix = ref [] in
  for k = 0 to cfg.max_len - 1 do
    let id =
      if k = 0 then Vega_nn.Vocab.e2d else ((k * 7) + 3) mod cfg.vocab_size
    in
    prefix := id :: !prefix;
    NN.batch_step b [| (slot, id) |];
    let row = NN.batch_logits b ~slot in
    let dec_in = Array.of_list (List.rev !prefix) in
    let logits = NN.decode_logits m ~memory dec_in in
    let last = logits.T.rows - 1 in
    Array.iteri
      (fun j v ->
        let full = T.get logits last j in
        if Int64.bits_of_float v <> Int64.bits_of_float full then
          Alcotest.failf "step %d col %d: cached %h <> full %h" k j v full)
      row
  done;
  match NN.batch_step b [| (slot, 3) |] with
  | () -> Alcotest.fail "step past max_len accepted"
  | exception Vega_robust.Fault.Fault (Vega_robust.Fault.Tensor_fault _) -> ()

(* Shared small model for the batched-decode tests. *)
let batch_cfg =
  {
    Vega_nn.Transformer.d_model = 16;
    heads = 2;
    d_ff = 32;
    n_layers = 2;
    max_len = 32;
    vocab_size = 26;
  }

let batch_model = lazy (Vega_nn.Transformer.create ~seed:5 batch_cfg)

(* [generate] runs the batch engine with one slot; for several sources
   and output budgets (up to and past max_len) it must be bit-identical
   to the uncached reference decode. *)
let test_generate_cached_equals_uncached () =
  let m = Lazy.force batch_model in
  List.iter
    (fun (len, max_out) ->
      let src =
        Array.init len (fun i -> ((i * 3) + len) mod batch_cfg.vocab_size)
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

(* batch=1 through the batch engine must be bit-identical to the
   uncached reference decode. *)
let test_generate_batch1_bitident () =
  let m = Lazy.force batch_model in
  let src = Array.init 8 (fun i -> ((i * 3) + 2) mod batch_cfg.vocab_size) in
  let ids_u, probs_u =
    Vega_nn.Transformer.generate_uncached m ~src ~max_out:30 ()
  in
  let res =
    Vega_nn.Transformer.generate_batch m ~slots:1 ~srcs:[| src |] ~max_out:30 ()
  in
  let ids_b, probs_b = res.(0) in
  Alcotest.(check (array int)) "same ids" ids_u ids_b;
  Alcotest.(check int) "same count" (Array.length probs_u) (Array.length probs_b);
  Array.iteri
    (fun i p ->
      if Int64.bits_of_float p <> Int64.bits_of_float probs_u.(i) then
        Alcotest.failf "prob %d: batch=1 %h <> uncached %h" i p probs_u.(i))
    probs_b

(* Property: for every batch composition (request count, slot count —
   including fewer slots than requests, which forces join/leave churn),
   continuous batched decode matches the per-request reference decode
   bit for bit: ids and every token probability. *)
let batch_composition_prop =
  QCheck.Test.make ~name:"batched decode = sequential decode" ~count:60
    QCheck.(
      triple (int_range 1 6) (int_range 1 4) (int_range 0 999))
    (fun (n, slots, seed) ->
      let m = Lazy.force batch_model in
      let srcs =
        Array.init n (fun i ->
            let len = 1 + ((seed + (3 * i)) mod 8) in
            Array.init len (fun j ->
                (seed + (13 * i) + (7 * j)) mod batch_cfg.vocab_size))
      in
      let max_out = 6 + (seed mod 20) in
      let expected =
        Array.map
          (fun src -> Vega_nn.Transformer.generate_uncached m ~src ~max_out ())
          srcs
      in
      let got = Vega_nn.Transformer.generate_batch m ~slots ~srcs ~max_out () in
      Array.for_all2
        (fun (eids, eprobs) (gids, gprobs) ->
          eids = gids
          && Array.length eprobs = Array.length gprobs
          && Array.for_all2
               (fun e g -> Int64.bits_of_float e = Int64.bits_of_float g)
               eprobs gprobs)
        expected got)

(* Concurrent callers through one batcher coalesce into shared steps
   and must each still get the reference decode's exact result. *)
let test_batcher_concurrent () =
  let m = Lazy.force batch_model in
  let srcs =
    Array.init 6 (fun i ->
        Array.init
          (3 + (i mod 5))
          (fun j -> ((i * 7) + (j * 3) + 2) mod batch_cfg.vocab_size))
  in
  let expected =
    Array.map
      (fun src -> Vega_nn.Transformer.generate_uncached m ~src ~max_out:24 ())
      srcs
  in
  let bt = Vega_nn.Transformer.batcher m ~slots:3 in
  Alcotest.(check int) "batcher slots" 3 (Vega_nn.Transformer.batcher_slots bt);
  let doms =
    Array.map
      (fun src ->
        Domain.spawn (fun () ->
            Vega_nn.Transformer.generate m ~src ~max_out:24 ~batch:bt ()))
      srcs
  in
  let got = Array.map Domain.join doms in
  Array.iteri
    (fun i (gids, gprobs) ->
      let eids, eprobs = expected.(i) in
      Alcotest.(check (array int)) (Printf.sprintf "req %d ids" i) eids gids;
      Array.iteri
        (fun k p ->
          if Int64.bits_of_float p <> Int64.bits_of_float eprobs.(k) then
            Alcotest.failf "req %d prob %d: batched %h <> reference %h" i k p
              eprobs.(k))
        gprobs)
    got

(* A bad source from one batcher caller faults that caller only: a
   second caller looping on a valid source keeps getting the reference
   result, and the batcher stays usable afterwards. Every wait is
   bounded, so a wedged batcher fails the test instead of hanging it. *)
let test_batcher_bad_source () =
  let module NN = Vega_nn.Transformer in
  let m = Lazy.force batch_model in
  let bt = NN.batcher m ~slots:2 in
  let good = Array.init 6 (fun j -> ((j * 5) + 1) mod batch_cfg.vocab_size) in
  let expected = NN.generate_uncached m ~src:good ~max_out:24 () in
  let bits (ids, probs) = (ids, Array.map Int64.bits_of_float probs) in
  let decode () =
    match NN.generate m ~src:good ~max_out:24 ~batch:bt () with
    | got when bits got = bits expected -> None
    | _ -> Some "output differs from generate_uncached"
    | exception e -> Some (Printexc.to_string e)
  in
  let within_10s ready =
    let deadline = Unix.gettimeofday () +. 10.0 in
    while (not (ready ())) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.005
    done;
    ready ()
  in
  let stop = Atomic.make false and a_runs = Atomic.make 0 in
  let a_error = Atomic.make None in
  let a =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          (match decode () with
          | Some e -> ignore (Atomic.compare_and_set a_error None (Some e))
          | None -> ());
          Atomic.incr a_runs
        done)
  in
  if not (within_10s (fun () -> Atomic.get a_runs > 0)) then
    Alcotest.fail "valid caller never completed a decode";
  (* several submissions, so at least one is queued while the valid
     caller is driving the engine *)
  let b_result = Atomic.make None in
  let b =
    Domain.spawn (fun () ->
        let outcome () =
          match NN.generate m ~src:[| 1; 2; 999 |] ~max_out:24 ~batch:bt () with
          | _ -> "returned"
          | exception Vega_robust.Fault.Fault (Vega_robust.Fault.Tensor_fault _)
            ->
              "tensor fault"
          | exception e -> Printexc.to_string e
        in
        Atomic.set b_result (Some (List.init 5 (fun _ -> outcome ()))))
  in
  if not (within_10s (fun () -> Atomic.get b_result <> None)) then
    Alcotest.fail "bad-source caller did not return within 10 s";
  let runs = Atomic.get a_runs in
  if not (within_10s (fun () -> Atomic.get a_runs > runs)) then
    Alcotest.fail "valid caller stalled after the bad source";
  Atomic.set stop true;
  Domain.join a;
  Domain.join b;
  Alcotest.(check (option string)) "valid caller unaffected" None
    (Atomic.get a_error);
  Alcotest.(check (list string)) "bad caller gets its own fault"
    (List.init 5 (fun _ -> "tensor fault"))
    (Option.get (Atomic.get b_result));
  Alcotest.(check (option string)) "batcher usable afterwards" None (decode ())

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
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint mismatch" `Quick test_checkpoint_shape_mismatch;
    Alcotest.test_case "checkpoint count mismatch" `Quick
      test_checkpoint_count_mismatch;
    Alcotest.test_case "checkpoint v1 compat" `Quick test_checkpoint_v1_compat;
    Alcotest.test_case "gru gradcheck" `Quick test_gru_gradcheck;
    Alcotest.test_case "gru overfits" `Slow test_gru_overfits;
    Alcotest.test_case "kv cache bit-identical" `Quick test_kv_cache_bitident;
    Alcotest.test_case "generate cached = uncached" `Quick
      test_generate_cached_equals_uncached;
    Alcotest.test_case "batch=1 bit-identical to uncached" `Quick
      test_generate_batch1_bitident;
    QCheck_alcotest.to_alcotest batch_composition_prop;
    Alcotest.test_case "batcher coalesces concurrent decodes" `Quick
      test_batcher_concurrent;
    Alcotest.test_case "batcher bad source faults only its caller" `Quick
      test_batcher_bad_source;
    Alcotest.test_case "tape domain-safe" `Quick test_tape_domain_safety;
  ]
