(* Test entry point: one alcotest run covering every library. *)
let () =
  Alcotest.run "vega"
    [
      ("util", Test_util.suite);
      ("srclang", Test_srclang.suite);
      ("tdlang", Test_tdlang.suite);
      ("gumtree", Test_gumtree.suite);
      ("target", Test_target.suite);
      ("corpus", Test_corpus.suite);
      ("ir", Test_ir.suite);
      ("nn", Test_nn.suite);
      ("core", Test_core.suite);
      ("backend", Test_backend.suite);
      ("analysis", Test_analysis.suite);
      ("absint", Test_absint.suite);
      ("robust", Test_robust.suite);
      ("durable", Test_durable.suite);
      ("breaker", Test_breaker.suite);
      ("serve", Test_serve.suite);
      ("stream", Test_stream.suite);
      ("shard", Test_shard.suite);
      ("fleet", Test_fleet.suite);
      ("chaos", Test_chaos.suite);
      ("parallel", Test_parallel.suite);
      ("eval", Test_eval.suite);
      ("endtoend", Test_endtoend.suite);
    ]
