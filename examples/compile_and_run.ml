(* MiniLLVM as a library: compile a VIR program for any target with the
   reference backend (the "base compiler"), print its assembly, object
   artifacts, disassembly, and run it on the target simulator — the
   substrate every pass@1 measurement in this reproduction stands on.

     dune exec examples/compile_and_run.exe -- RI5CY dotprod -O3 *)

module B = Vega_backend

let () =
  let arg i d = if Array.length Sys.argv > i then Sys.argv.(i) else d in
  let target = arg 1 "RISCV" in
  let prog = arg 2 "loop_sum" in
  let opt = if arg 3 "-O3" = "-O0" then B.Compiler.O0 else B.Compiler.O3 in
  let case =
    match Vega_ir.Programs.find prog with
    | Some c -> c
    | None ->
        Printf.eprintf "unknown program %s; try one of:\n  %s\n" prog
          (String.concat ", "
             (List.map
                (fun (c : Vega_ir.Programs.case) -> c.name)
                (Vega_ir.Programs.regression @ Vega_ir.Programs.benchmarks)));
        exit 1
  in
  let corpus = Vega_corpus.Corpus.build () in
  let p =
    match Vega_target.Registry.find target with
    | Some p -> p
    | None ->
        Printf.eprintf "unknown target %s\n" target;
        exit 1
  in
  let _, conv = Vega_eval.Refbackend.backend_for corpus.Vega_corpus.Corpus.vfs p in
  let out = B.Compiler.compile conv ~opt (Vega_ir.Programs.modul_of case) in
  print_endline "== assembly ==";
  print_string out.B.Compiler.asm;
  let obj = out.B.Compiler.emitted.B.Emitter.obj in
  Printf.printf "\n== object: %d text words, %d data words, %d relocations ==\n"
    (Array.length obj.Vega_mc.Mcinst.text)
    (Array.length obj.Vega_mc.Mcinst.data)
    (List.length obj.Vega_mc.Mcinst.relocs);
  List.iter
    (fun (r : Vega_mc.Mcinst.reloc) ->
      Printf.printf "  reloc @%04x type %d -> %s\n" r.r_offset r.r_type r.r_sym)
    obj.Vega_mc.Mcinst.relocs;
  (match B.Disasm.decode conv obj with
  | Ok text ->
      print_endline "\n== disassembly (relocatable view) ==";
      print_string text
  | Error m -> Printf.printf "\n(disassembler: %s)\n" m);
  let r =
    Vega_sim.Machine.run conv out.B.Compiler.emitted ~entry:case.entry
      ~args:case.args
  in
  (match r.Vega_sim.Machine.status with
  | Vega_sim.Machine.Finished ret ->
      Printf.printf "\n== simulation: finished (ret %s) ==\n"
        (match ret with Some v -> string_of_int v | None -> "-")
  | Vega_sim.Machine.Trap m -> Printf.printf "\n== simulation: TRAP %s ==\n" m
  | Vega_sim.Machine.Timeout f ->
      Printf.printf "\n== simulation: TIMEOUT (fuel %d) ==\n" f
  | Vega_sim.Machine.Hook_timeout f ->
      Printf.printf "\n== simulation: HOOK TIMEOUT (fuel %d) ==\n" f);
  Printf.printf "output:  [%s]\n"
    (String.concat "; " (List.map string_of_int r.Vega_sim.Machine.output));
  Printf.printf "golden:  [%s]\n"
    (String.concat "; " (List.map string_of_int (Vega_ir.Programs.golden case)));
  Printf.printf "cycles:  %d   retired: %d\n" r.Vega_sim.Machine.cycles
    r.Vega_sim.Machine.retired
