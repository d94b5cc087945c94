(* Test entry point: one alcotest run covering every library. Suite names
   stay within eight characters: alcotest cuts long test names to fit the
   widest suite name, so a longer one changes how those names print. *)
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
      ("retrieve", Test_retrieval.suite);
      ("backend", Test_backend.suite);
      ("sim", Test_sim.suite);
      ("analysis", Test_analysis.suite);
      ("absint", Test_absint.suite);
      ("robust", Test_robust.suite);
      ("durable", Test_durable.suite);
      ("breaker", Test_breaker.suite);
      ("serve", Test_serve.suite);
      ("stream", Test_stream.suite);
      ("shard", Test_shard.suite);
      ("ladder", Test_ladder.suite);
      ("fleet", Test_fleet.suite);
      ("chaos", Test_chaos.suite);
      ("parallel", Test_parallel.suite);
      ("eval", Test_eval.suite);
      ("endtoend", Test_endtoend.suite);
    ]
