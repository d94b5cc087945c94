(* Differential testing: random VIR programs must produce the same print
   stream through (a) the reference interpreter and (b) compilation with
   the base backend + simulation — at both optimization levels. This is
   the strongest whole-substrate invariant in the repository. *)

module V = Vega_ir.Vir
module B = Vega_backend

let corpus = lazy (Vega_corpus.Corpus.build ())

let conv_for name =
  let corpus = Lazy.force corpus in
  let p = Vega_target.Registry.find_exn name in
  let _, conv = Vega_eval.Refbackend.backend_for corpus.Vega_corpus.Corpus.vfs p in
  conv

(* ---- random straight-line/loop program generator ---- *)

type prog_seed = { ops : (int * int * int) list; loop_trip : int; seed : int }

let gen_prog_seed =
  QCheck.Gen.(
    map3
      (fun ops trip seed -> { ops; loop_trip = 2 + (trip mod 5); seed })
      (list_size (int_range 3 12)
         (triple (int_range 0 9) (int_range (-600) 600) (int_range 1 5)))
      small_nat small_nat)

(* Build a program from the seed: an accumulator threaded through random
   operations (with care around division), inside a counted loop, printing
   intermediate values. *)
let build { ops; loop_trip; seed } =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "func @main() {\nentry:\n";
  Buffer.add_string buf (Printf.sprintf "  %%r0 = mov %d\n" ((seed mod 97) + 1));
  Buffer.add_string buf "  %r1 = mov 0\n  br loop\nloop:\n";
  List.iteri
    (fun i (op, k, shift) ->
      let k = if k = 0 then 1 else k in
      let line =
        match op with
        | 0 -> Printf.sprintf "  %%r0 = add %%r0, %d\n" k
        | 1 -> Printf.sprintf "  %%r0 = sub %%r0, %d\n" k
        | 2 -> Printf.sprintf "  %%r0 = mul %%r0, %d\n" ((abs k mod 7) + 1)
        | 3 -> Printf.sprintf "  %%r0 = xor %%r0, %d\n" k
        | 4 -> Printf.sprintf "  %%r0 = and %%r0, %d\n" (abs k lor 0xff)
        | 5 -> Printf.sprintf "  %%r0 = or %%r0, %d\n" (abs k land 0xffff)
        | 6 -> Printf.sprintf "  %%r0 = shl %%r0, %d\n" (shift mod 4)
        | 7 -> Printf.sprintf "  %%r0 = shr %%r0, %d\n" shift
        | 8 ->
            (* keep divisors positive and away from zero *)
            Printf.sprintf "  %%r0 = div %%r0, %d\n" ((abs k mod 9) + 2)
        | _ -> Printf.sprintf "  %%r0 = slt %%r0, %d\n" k
      in
      Buffer.add_string buf line;
      if i mod 3 = 0 then Buffer.add_string buf "  print %r0\n")
    ops;
  Buffer.add_string buf "  %r1 = add %r1, 1\n";
  Buffer.add_string buf
    (Printf.sprintf "  brlt %%r1, %d, loop, done\ndone:\n  print %%r0\n  ret 0\n}\n"
       loop_trip);
  Buffer.contents buf

let run_case conv source opt =
  let m = Vega_ir.Vir_parser.parse source in
  let golden, _ = Vega_ir.Vir_interp.run m ~entry:"main" ~args:[] in
  let out = B.Compiler.compile conv ~opt m in
  let r = Vega_sim.Machine.run conv out.B.Compiler.emitted ~entry:"main" ~args:[] in
  match r.Vega_sim.Machine.status with
  | Vega_sim.Machine.Trap msg -> Error msg
  | Vega_sim.Machine.Timeout f -> Error (Printf.sprintf "timeout (fuel %d)" f)
  | Vega_sim.Machine.Hook_timeout f ->
      Error (Printf.sprintf "hook timeout (fuel %d)" f)
  | Vega_sim.Machine.Finished _ ->
      if r.Vega_sim.Machine.output = golden then Ok () else Error "output mismatch"

let differential target =
  QCheck.Test.make
    ~name:(Printf.sprintf "compiled = interpreted on %s (O0 and O3)" target)
    ~count:25
    (QCheck.make ~print:(fun s -> build s) gen_prog_seed)
    (fun seedv ->
      let source = build seedv in
      let conv = conv_for target in
      match
        (run_case conv source B.Compiler.O0, run_case conv source B.Compiler.O3)
      with
      | Ok (), Ok () -> true
      | Error m, _ | _, Error m -> QCheck.Test.fail_reportf "%s:\n%s" m source)

let test_sim_deterministic () =
  let conv = conv_for "RISCV" in
  let c = Option.get (Vega_ir.Programs.find "crc32") in
  let out = B.Compiler.compile conv ~opt:B.Compiler.O3 (Vega_ir.Programs.modul_of c) in
  let run () = Vega_sim.Machine.run conv out.B.Compiler.emitted ~entry:"main" ~args:[] in
  let a = run () and b = run () in
  Alcotest.(check (list int)) "same output" a.Vega_sim.Machine.output b.Vega_sim.Machine.output;
  Alcotest.(check int) "same cycles" a.Vega_sim.Machine.cycles b.Vega_sim.Machine.cycles

let test_pipeline_deterministic () =
  (* two full preparations produce identical templates and properties *)
  let p1 = Vega.Pipeline.prepare ~corpus:(Lazy.force corpus) () in
  let p2 = Vega.Pipeline.prepare ~corpus:(Lazy.force corpus) () in
  let sig_of p =
    List.map
      (fun (b : Vega.Pipeline.bundle) ->
        ( b.spec.Vega_corpus.Spec.fname,
          Vega.Template.tokens_of_template b.tpl.Vega.Template.signature,
          Vega.Featsel.prop_names b.analysis ))
      p.Vega.Pipeline.bundles
  in
  Alcotest.(check bool) "identical analyses" true (sig_of p1 = sig_of p2)

let suite =
  [
    QCheck_alcotest.to_alcotest ~long:true (differential "RISCV");
    QCheck_alcotest.to_alcotest ~long:true (differential "Mips");
    QCheck_alcotest.to_alcotest ~long:true (differential "AVR");
    Alcotest.test_case "simulator deterministic" `Quick test_sim_deterministic;
    Alcotest.test_case "pipeline deterministic" `Slow test_pipeline_deterministic;
  ]
