(* Tests for the parallel inference engine: the domain pool itself
   (deterministic order, failure propagation), parallel-vs-sequential
   bit-identity of backend generation, parallel durable runs including
   kill/resume, and the eval-split leakage regression (the retrieval
   index must cover exactly the training side of the split). *)

module V = Vega
module R = Vega_robust
module J = R.Journal
module Par = Vega_util.Par

(* ---------------- the domain pool ---------------- *)

let test_par_map_order () =
  let items = List.init 100 Fun.id in
  let expect = List.map (fun i -> i * i) items in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "order preserved with %d domains" domains)
        expect
        (Par.map ~domains (fun i -> i * i) items))
    [ 1; 2; 4; 8 ];
  Alcotest.(check (list int)) "empty input" []
    (Par.map ~domains:4 (fun i -> i) []);
  Alcotest.(check (list int)) "fewer items than domains" [ 7 ]
    (Par.map ~domains:4 (fun i -> i + 6) [ 1 ])

let test_par_map_failure () =
  (* a failing item propagates its own exception to the caller *)
  (match Par.map ~domains:3 (fun i -> if i = 5 then failwith "item5" else i)
           (List.init 20 Fun.id)
   with
  | exception Failure m -> Alcotest.(check string) "the item's error" "item5" m
  | _ -> Alcotest.fail "expected the failure to propagate");
  (* the pool is reusable after a failure *)
  Alcotest.(check (list int)) "pool state not poisoned" [ 0; 1; 2 ]
    (Par.map ~domains:3 Fun.id [ 0; 1; 2 ])

let test_par_map_ctx () =
  (* every worker gets a private context; worker 0 is the caller *)
  let seen = Array.make 4 0 in
  let results =
    Par.map_ctx ~domains:4
      ~ctx:(fun w ->
        Alcotest.(check bool) "worker index in range" true (w >= 0 && w < 4);
        w)
      (fun w i ->
        (* no lock: each slot is touched by exactly one worker *)
        seen.(w) <- seen.(w) + 1;
        i * 10)
      (List.init 40 Fun.id)
  in
  Alcotest.(check (list int)) "ctx map keeps order"
    (List.init 40 (fun i -> i * 10))
    results;
  Alcotest.(check int) "every item ran exactly once" 40
    (Array.fold_left ( + ) 0 seen)

(* A gang runs batch after batch on the same domains: order kept, every
   item run even when one fails, the lowest-indexed failure re-raised,
   and the gang still usable afterwards. *)
let test_gang () =
  let g = Par.Gang.create ~domains:3 in
  let ran = Atomic.make 0 in
  for batch = 1 to 50 do
    let items = List.init (batch mod 7) (fun i -> (batch * 100) + i) in
    Alcotest.(check (list int))
      (Printf.sprintf "batch %d keeps order" batch)
      (List.map (fun i -> i * 2) items)
      (Par.Gang.map g
         (fun i ->
           Atomic.incr ran;
           i * 2)
         items)
  done;
  Atomic.set ran 0;
  (match
     Par.Gang.map g
       (fun i ->
         Atomic.incr ran;
         if i = 3 || i = 5 then failwith (Printf.sprintf "item%d" i) else i)
       (List.init 8 Fun.id)
   with
  | exception Failure m ->
      Alcotest.(check string) "lowest-indexed failure" "item3" m
  | _ -> Alcotest.fail "expected the failure to propagate");
  Alcotest.(check int) "every item ran despite the failures" 8
    (Atomic.get ran);
  Alcotest.(check (list int)) "gang usable after a failure" [ 0; 1; 2 ]
    (Par.Gang.map g Fun.id [ 0; 1; 2 ]);
  Par.Gang.stop g

(* ---------------- eval-split leakage regression ---------------- *)

let test_retrieval_no_eval_leakage () =
  let t = Lazy.force Test_robust.pipeline in
  Alcotest.(check bool) "split has a verification side" true
    (t.V.Pipeline.verify_pairs <> []);
  (* regression: the index used to be built from train + verification
     pairs, so its size equalled the whole split *)
  Alcotest.(check int) "index covers exactly the train side"
    (List.length t.V.Pipeline.train_pairs)
    (V.Retrieval.size t.V.Pipeline.retrieval);
  Alcotest.(check bool) "old behavior indexed the verification side too"
    true
    (V.Retrieval.size t.V.Pipeline.retrieval
    < List.length t.V.Pipeline.train_pairs
      + List.length t.V.Pipeline.verify_pairs);
  (* no verification output is reachable from the index unless the same
     output also occurs on the training side *)
  let train_outputs = List.map snd t.V.Pipeline.train_pairs in
  List.iter
    (fun o ->
      Alcotest.(check bool) "indexed output comes from the train side" true
        (List.mem o train_outputs))
    (V.Retrieval.outputs t.V.Pipeline.retrieval)

(* ---------------- parallel generation bit-identity ---------------- *)

let test_parallel_generate_identical () =
  let t = Lazy.force Test_robust.pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let seq =
    Test_durable.render (V.Pipeline.generate_backend t ~target:"RISCV" ~decoder)
  in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "%d-domain run bit-identical to sequential" domains)
        seq
        (Test_durable.render
           (V.Pipeline.generate_backend ~domains t ~target:"RISCV" ~decoder)))
    [ 1; 2; 4 ]

let test_parallel_generate_supervised () =
  (* forked per-worker supervisors change nothing about the output and
     fold their stats back into the caller's supervisor *)
  let t = Lazy.force Test_robust.pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let seq = V.Pipeline.generate_backend t ~target:"RISCV" ~decoder in
  let sup, _, _ = Test_durable.virtual_sup () in
  let par =
    V.Pipeline.generate_backend ~sup ~domains:3 t ~target:"RISCV" ~decoder
  in
  Alcotest.(check string) "supervised parallel run bit-identical"
    (Test_durable.render seq) (Test_durable.render par);
  Alcotest.(check int) "worker stats folded back"
    (List.length seq)
    (R.Supervisor.stats sup).R.Supervisor.sup_functions

let test_parallel_generate_report () =
  (* a mutex-guarded report collects the same degradations under
     parallel generation as under sequential *)
  let t = Lazy.force Test_robust.pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let faulty =
    (* deterministic per-FV fault: degradation counts must match however
       the work is scheduled *)
    fun (fv : V.Featrep.fv) ->
      if (fv.V.Featrep.line + fv.V.Featrep.inst) mod 3 = 0 then
        failwith "seeded decoder fault"
      else decoder fv
  in
  let run domains =
    let report = R.Report.create () in
    let gfs =
      V.Pipeline.generate_backend ~fallback:decoder ~report ~domains t
        ~target:"RISCV" ~decoder:faulty
    in
    (Test_durable.render gfs, R.Report.total report, R.Report.degraded_count report)
  in
  let seq_render, seq_total, seq_degraded = run 1 in
  let par_render, par_total, par_degraded = run 4 in
  Alcotest.(check string) "faulty parallel run bit-identical" seq_render
    par_render;
  Alcotest.(check bool) "faults were actually injected" true (seq_total > 0);
  Alcotest.(check int) "same fault count" seq_total par_total;
  Alcotest.(check int) "same degradation count" seq_degraded par_degraded

(* ---------------- parallel durable runs ---------------- *)

let test_parallel_durable_matches_plain () =
  let t = Lazy.force Test_robust.pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let plain = V.Pipeline.generate_backend t ~target:"RISCV" ~decoder in
  let dir = Test_durable.fresh_dir "par_plain" in
  match
    V.Pipeline.generate_backend_durable ~domains:3 ~run_dir:dir t
      ~target:"RISCV" ~decoder
  with
  | Error e -> Alcotest.failf "parallel durable run failed: %s" e
  | Ok o ->
      Alcotest.(check string) "parallel journaling changes nothing"
        (Test_durable.render plain)
        (Test_durable.render o.V.Pipeline.d_funcs);
      Alcotest.(check int) "every function generated"
        (List.length plain)
        o.V.Pipeline.d_generated;
      (* the interleaved journal replays cleanly: keying by function
         name reassembles every concurrent trail *)
      (match
         V.Pipeline.generate_backend_durable ~resume:true ~run_dir:dir t
           ~target:"RISCV" ~decoder
       with
      | Error e -> Alcotest.failf "resume of parallel run failed: %s" e
      | Ok o2 ->
          Alcotest.(check int) "everything restored from interleaved journal"
            (List.length plain)
            o2.V.Pipeline.d_resumed;
          Alcotest.(check string) "restored run identical"
            (Test_durable.render plain)
            (Test_durable.render o2.V.Pipeline.d_funcs))

let test_parallel_kill_resume () =
  (* faultcheck under parallel generation: a simulated crash in any
     domain stops every worker; resume over the interleaved journal
     restores every function it seals and is bit-identical to an
     uninterrupted run *)
  let t = Lazy.force Test_robust.pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let ref_dir = Test_durable.fresh_dir "par_ref" in
  let expect, total, nfuncs =
    match
      V.Pipeline.generate_backend_durable ~run_dir:ref_dir t ~target:"RISCV"
        ~decoder
    with
    | Error e -> Alcotest.failf "reference run failed: %s" e
    | Ok o ->
        ( Test_durable.render o.V.Pipeline.d_funcs,
          o.V.Pipeline.d_records,
          List.length o.V.Pipeline.d_funcs )
  in
  List.iter
    (fun k ->
      let dir =
        Test_durable.fresh_dir (Printf.sprintf "par_kill%d" k)
      in
      (match
         V.Pipeline.generate_backend_durable ~kill_at:k ~domains:2 ~run_dir:dir
           t ~target:"RISCV" ~decoder
       with
      | exception J.Killed n ->
          Alcotest.(check int) "killed at the armed record" k n
      | Ok _ -> Alcotest.fail "expected the simulated crash"
      | Error e -> Alcotest.failf "killed run setup failed: %s" e);
      J.tear ~path:(V.Pipeline.journal_path dir);
      let sealed = List.length (Vega_chaos.Ctx.sealed dir) in
      (* the crash and the tear cost the journal its last two records,
         so at most two seals *)
      if k = total - 1 then
        Alcotest.(check bool) "the journal seals all but at most two" true
          (sealed >= nfuncs - 2);
      match
        V.Pipeline.generate_backend_durable ~resume:true ~domains:2
          ~run_dir:dir t ~target:"RISCV" ~decoder
      with
      | Error e -> Alcotest.failf "parallel resume failed: %s" e
      | Ok o ->
          Alcotest.(check bool) "torn record recovered" true
            o.V.Pipeline.d_torn;
          Alcotest.(check int) "every sealed function restored" sealed
            o.V.Pipeline.d_resumed;
          Alcotest.(check string) "bit-identical to the uninterrupted run"
            expect
            (Test_durable.render o.V.Pipeline.d_funcs))
    [ 2; total / 2; total - 1 ]

let suite =
  [
    Alcotest.test_case "par map keeps order" `Quick test_par_map_order;
    Alcotest.test_case "par map propagates failure" `Quick test_par_map_failure;
    Alcotest.test_case "par map_ctx worker contexts" `Quick test_par_map_ctx;
    Alcotest.test_case "gang runs batch after batch" `Quick test_gang;
    Alcotest.test_case "retrieval index has no eval leakage" `Quick
      test_retrieval_no_eval_leakage;
    Alcotest.test_case "parallel generation bit-identical" `Slow
      test_parallel_generate_identical;
    Alcotest.test_case "parallel generation under supervision" `Slow
      test_parallel_generate_supervised;
    Alcotest.test_case "parallel generation report parity" `Slow
      test_parallel_generate_report;
    Alcotest.test_case "parallel durable matches plain" `Slow
      test_parallel_durable_matches_plain;
    Alcotest.test_case "parallel kill-resume faultcheck" `Slow
      test_parallel_kill_resume;
  ]
