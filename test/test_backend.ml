(* Integration tests: MiniLLVM backend + simulators with reference hooks.
   The full 17-target x 27-case x 2-level matrix runs in the bench; here
   we cover representative targets and the feature-specific behaviors. *)

module B = Vega_backend
module C = Vega_corpus.Corpus
module P = Vega_ir.Programs

let corpus = lazy (C.build ())

let conv_for name =
  let corpus = Lazy.force corpus in
  let p = Vega_target.Registry.find_exn name in
  let sources =
    List.filter_map
      (fun spec ->
        Option.map
          (fun f -> (spec.Vega_corpus.Spec.fname, f))
          (C.reference_inlined spec p))
      C.all_specs
  in
  let hooks = B.Hooks.create corpus.C.vfs ~target:name ~sources in
  B.Conv.make corpus.C.vfs hooks

let compile_run conv case opt =
  let out = B.Compiler.compile conv ~opt (P.modul_of case) in
  (out, Vega_sim.Machine.run conv out.B.Compiler.emitted ~entry:case.P.entry ~args:case.P.args)

let check_case conv (case : P.case) opt =
  let _, r = compile_run conv case opt in
  (match r.Vega_sim.Machine.status with
  | Vega_sim.Machine.Finished _ -> ()
  | Vega_sim.Machine.Trap m -> Alcotest.failf "%s trapped: %s" case.P.name m
  | Vega_sim.Machine.Timeout f ->
      Alcotest.failf "%s timed out (fuel %d)" case.P.name f);
  Alcotest.(check (list int)) (case.P.name ^ " output") (P.golden case)
    r.Vega_sim.Machine.output

let test_riscv_all_programs () =
  let conv = conv_for "RISCV" in
  List.iter
    (fun c ->
      check_case conv c B.Compiler.O0;
      check_case conv c B.Compiler.O3)
    (P.regression @ P.benchmarks)

let test_big_endian_target () =
  let conv = conv_for "Mips" in
  List.iter (fun c -> check_case conv c B.Compiler.O3) P.regression

let test_small_target () =
  let conv = conv_for "AVR" in
  check_case conv (Option.get (P.find "recursion_fib")) B.Compiler.O0;
  check_case conv (Option.get (P.find "relax_stress")) B.Compiler.O0

let test_o3_speedup () =
  let conv = conv_for "RISCV" in
  let c = Option.get (P.find "dotprod") in
  let _, r0 = compile_run conv c B.Compiler.O0 in
  let _, r3 = compile_run conv c B.Compiler.O3 in
  Alcotest.(check bool) "O3 is faster" true
    (r3.Vega_sim.Machine.cycles < r0.Vega_sim.Machine.cycles)

let test_hwloop_applies () =
  (* RI5CY converts counted loops; the loop body must retire without a
     branch per iteration, beating RISCV's cycle count shape *)
  let conv = conv_for "RI5CY" in
  let c = Option.get (P.find "loop_sum") in
  let out, r = compile_run conv c B.Compiler.O3 in
  Alcotest.(check (list int)) "output" (P.golden c) r.Vega_sim.Machine.output;
  let asm = out.B.Compiler.asm in
  Alcotest.(check bool) "lp.setup emitted" true
    (Vega_util.Strutil.contains_sub ~sub:"lp.setup" asm)

let test_simd_applies () =
  let conv = conv_for "RI5CY" in
  let c = Option.get (P.find "vecadd") in
  let out, r = compile_run conv c B.Compiler.O3 in
  Alcotest.(check (list int)) "output" (P.golden c) r.Vega_sim.Machine.output;
  Alcotest.(check bool) "pv.add.h emitted" true
    (Vega_util.Strutil.contains_sub ~sub:"pv.add.h" out.B.Compiler.asm)

let test_madd_combine () =
  let conv = conv_for "RI5CY" in
  let c = Option.get (P.find "mul_add_chain") in
  let out, r = compile_run conv c B.Compiler.O3 in
  Alcotest.(check (list int)) "output" (P.golden c) r.Vega_sim.Machine.output;
  Alcotest.(check bool) "madd emitted" true
    (Vega_util.Strutil.contains_sub ~sub:"madd" out.B.Compiler.asm)

let test_relaxation_fires () =
  let conv = conv_for "AVR" in
  let c = Option.get (P.find "relax_stress") in
  let out, r = compile_run conv c B.Compiler.O0 in
  Alcotest.(check (list int)) "output" (P.golden c) r.Vega_sim.Machine.output;
  Alcotest.(check bool) "relaxation labels present" true
    (Vega_util.Strutil.contains_sub ~sub:"__relax" out.B.Compiler.asm)

let test_asm_roundtrip () =
  List.iter
    (fun target ->
      let conv = conv_for target in
      let c = Option.get (P.find "globals_array") in
      let out, _ = compile_run conv c B.Compiler.O3 in
      match B.Asmparser.roundtrip_ok conv out.B.Compiler.emitted with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s roundtrip: %s" target m)
    [ "RISCV"; "ARM"; "X86"; "Mips" ]

let test_disasm () =
  let conv = conv_for "RISCV" in
  let c = Option.get (P.find "arith_basic") in
  let out, _ = compile_run conv c B.Compiler.O0 in
  (match B.Disasm.decode conv out.B.Compiler.emitted.B.Emitter.obj with
  | Ok text ->
      Alcotest.(check bool) "mentions addi" true
        (Vega_util.Strutil.contains_sub ~sub:"addi" text)
  | Error m -> Alcotest.failf "disasm: %s" m);
  (* XCore has no disassembler (Sec. 4.1.4) *)
  let xconv = conv_for "XCore" in
  let out2, _ =
    let out = B.Compiler.compile xconv ~opt:B.Compiler.O0 (P.modul_of c) in
    (out, ())
  in
  match B.Disasm.decode xconv out2.B.Compiler.emitted.B.Emitter.obj with
  | Error "no disassembler" -> ()
  | Ok _ | Error _ -> Alcotest.fail "XCore must report no disassembler"

let test_relocations_emitted () =
  let conv = conv_for "RISCV" in
  let c = Option.get (P.find "calls_simple") in
  let out, _ = compile_run conv c B.Compiler.O0 in
  let relocs = out.B.Compiler.emitted.B.Emitter.obj.Vega_mc.Mcinst.relocs in
  Alcotest.(check bool) "call relocs present" true (List.length relocs >= 3);
  Alcotest.(check bool) "print is relocated" true
    (List.exists (fun (r : Vega_mc.Mcinst.reloc) -> r.r_sym = "print") relocs)

let test_hook_error_propagates () =
  let corpus = Lazy.force corpus in
  let p = Vega_target.Registry.riscv in
  let sources =
    List.filter_map
      (fun spec ->
        Option.map
          (fun f -> (spec.Vega_corpus.Spec.fname, f))
          (C.reference_inlined spec p))
      C.all_specs
  in
  let broken =
    Vega_srclang.Parser.parse_function
      "int selectOpcode(unsigned ISDOpc) { return -1; }"
  in
  let sources = ("selectOpcode", broken) :: List.remove_assoc "selectOpcode" sources in
  let hooks = B.Hooks.create corpus.C.vfs ~target:"RISCV" ~sources in
  let conv = B.Conv.make corpus.C.vfs hooks in
  let c = Option.get (P.find "arith_basic") in
  match B.Compiler.compile conv ~opt:B.Compiler.O0 (P.modul_of c) with
  | exception B.Hooks.Hook_error ("selectOpcode", _) -> ()
  | _ -> Alcotest.fail "expected Hook_error from broken selectOpcode"

(* ---------------- differential scheduler ---------------- *)

(* The list scheduler as it was before dependence edges were stored as
   successor arrays, kept verbatim as the executable reference: the
   optimized [B.Sched.schedule_block] must reproduce its instruction
   order and its hook-call order exactly. *)
module Ref_sched = struct
  module Conv = B.Conv
  module Hooks = B.Hooks
  module Insntab = B.Insntab
  module Regalloc = B.Regalloc
  module I = Vega_mc.Mcinst

  let latency conv (inst : I.inst) =
    Hooks.call_int conv.Conv.hooks "getInstrLatency" [ Hooks.vint inst.I.opcode ]

  let sem_of conv (inst : I.inst) =
    Option.map (fun i -> i.Insntab.sem) (Insntab.by_opcode conv.Conv.tab inst.I.opcode)

  (* Instructions pinned to block boundaries: control flow and loop markers
     stay put; everything between is schedulable. *)
  let is_pinned conv inst =
    match sem_of conv inst with
    | Some
        ( Insntab.Sbranch _ | Insntab.Sjump | Insntab.Scall | Insntab.Sret
        | Insntab.Slpsetup | Insntab.Slpend ) ->
        true
    | Some _ | None -> false

  let is_mem conv inst =
    match sem_of conv inst with
    | Some (Insntab.Sload | Insntab.Sstore | Insntab.Svadd | Insntab.Svmul) -> true
    | Some _ | None -> false

  let schedule_block conv (b : I.mblock) =
    (* split into maximal schedulable regions between pinned instructions *)
    let insts = Array.of_list b.I.minsts in
    let n = Array.length insts in
    let out = ref [] in
    let fuse_enabled = Hooks.has conv.Conv.hooks "shouldScheduleAdjacent" in
    let region lo hi =
      (* schedule insts[lo, hi) *)
      let m = hi - lo in
      if m <= 1 then
        for k = lo to hi - 1 do
          out := insts.(k) :: !out
        done
      else begin
        let deps = Array.make m [] in
        (* data deps: def -> later use/def of same register; memory ordered *)
        for a = 0 to m - 1 do
          let ia = insts.(lo + a) in
          let da, ua = Regalloc.def_use conv.Conv.tab ia in
          for b' = a + 1 to m - 1 do
            let ib = insts.(lo + b') in
            let db, ub = Regalloc.def_use conv.Conv.tab ib in
            let overlap l1 l2 = List.exists (fun r -> List.mem r l2) l1 in
            if
              overlap da ub (* RAW *) || overlap da db (* WAW *)
              || overlap ua db (* WAR *)
              || (is_mem conv ia && is_mem conv ib)
            then deps.(b') <- a :: deps.(b')
          done
        done;
        (* fusion pairs: keep adjacent when the hook asks for it *)
        let fused_with = Array.make m (-1) in
        if fuse_enabled then
          for a = 0 to m - 2 do
            let ia = insts.(lo + a) and ib = insts.(lo + a + 1) in
            if
              Hooks.call_bool conv.Conv.hooks "shouldScheduleAdjacent"
                [ Hooks.vint ia.I.opcode; Hooks.vint ib.I.opcode ]
            then fused_with.(a) <- a + 1
          done;
        (* critical-path priority, boosted for high-latency defs *)
        let prio = Array.make m 0 in
        let high_latency opc =
          Hooks.has conv.Conv.hooks "isHighLatencyDef"
          && Hooks.call_bool conv.Conv.hooks "isHighLatencyDef" [ Hooks.vint opc ]
        in
        for a = m - 1 downto 0 do
          let lat =
            latency conv insts.(lo + a)
            + if high_latency insts.(lo + a).I.opcode then 2 else 0
          in
          prio.(a) <- lat;
          for b' = a + 1 to m - 1 do
            if List.mem a deps.(b') then prio.(a) <- max prio.(a) (lat + prio.(b'))
          done
        done;
        (* greedy list scheduling *)
        let emitted = Array.make m false in
        let indeg = Array.make m 0 in
        Array.iteri (fun b' ds -> indeg.(b') <- List.length ds) deps;
        let remaining = ref m in
        while !remaining > 0 do
          let best = ref (-1) in
          for a = 0 to m - 1 do
            if (not emitted.(a)) && indeg.(a) = 0 then
              if !best = -1 || prio.(a) > prio.(!best) then best := a
          done;
          let emit_one a =
            emitted.(a) <- true;
            decr remaining;
            out := insts.(lo + a) :: !out;
            for b' = 0 to m - 1 do
              if List.mem a deps.(b') then indeg.(b') <- indeg.(b') - 1
            done
          in
          if !best = -1 then begin
            (* cycle should not happen; fall back to original order *)
            for a = 0 to m - 1 do
              if not emitted.(a) then emit_one a
            done
          end
          else begin
            let a = !best in
            emit_one a;
            (* pull the fusion partner right behind, if ready *)
            let p = fused_with.(a) in
            if p >= 0 && (not emitted.(p)) && indeg.(p) = 0 then emit_one p
          end
        done
      end
    in
    let lo = ref 0 in
    for k = 0 to n - 1 do
      if is_pinned conv insts.(k) then begin
        region !lo k;
        out := insts.(k) :: !out;
        lo := k + 1
      end
    done;
    region !lo n;
    b.I.minsts <- List.rev !out
end

(* Random blocks: opcodes from the whole instruction table (loads,
   stores and pinned control flow included), registers from a pool of
   four so that long dependent chains are common. An instruction is
   drawn as a table index (reduced modulo the table size) and operands. *)
let block_arb =
  QCheck.Gen.(
    let operand =
      frequency
        [
          (7, map (fun r -> Vega_mc.Mcinst.Oreg r) (int_range 5 8));
          (2, map (fun n -> Vega_mc.Mcinst.Oimm n) (int_range (-8) 8));
          (1, return (Vega_mc.Mcinst.Olabel "L1"));
        ]
    in
    let inst = pair (int_bound 1000) (list_size (int_range 0 3) operand) in
    list_size (frequency [ (8, int_range 0 40); (2, int_range 40 160) ]) inst)
  |> QCheck.make ~print:(fun insts ->
         String.concat "; "
           (List.map
              (fun (k, ops) ->
                Printf.sprintf "#%d %s" k
                  (String.concat "," (List.map Vega_mc.Mcinst.show_operand ops)))
              insts))

let insts_of conv drawn =
  let infos = Array.of_list (B.Insntab.all conv.B.Conv.tab) in
  List.map
    (fun (k, ops) ->
      Vega_mc.Mcinst.mk_inst infos.(k mod Array.length infos).B.Insntab.opcode ops)
    drawn

(* The scheduled order as input positions (physical identity), or the
   first hook error. *)
let schedule_with sched conv insts =
  let b = { Vega_mc.Mcinst.mlabel = "L0"; minsts = insts } in
  match sched conv b with
  | () ->
      Ok
        (List.map
           (fun i ->
             let rec pos k = function
               | [] -> -1
               | x :: rest -> if x == i then k else pos (k + 1) rest
             in
             pos 0 insts)
           b.Vega_mc.Mcinst.minsts)
  | exception B.Hooks.Hook_error (h, m) -> Error (h, m)

let sched_matches_reference conv drawn =
  let insts = insts_of conv drawn in
  schedule_with B.Sched.schedule_block conv insts
  = schedule_with Ref_sched.schedule_block conv insts

(* RISCV with its three per-instruction scheduling hooks replaced by the
   bodies [hooks] builds from an opcode lookup. *)
let riscv_with_sched_hooks hooks =
  let corpus = Lazy.force corpus in
  let tab = (conv_for "RISCV").B.Conv.tab in
  let replaced =
    List.map
      (fun (fname, src) -> (fname, Vega_srclang.Parser.parse_function src))
      (hooks (B.Insntab.opcode_exn tab))
  in
  let sources =
    replaced
    @ List.filter
        (fun (f, _) -> not (List.mem_assoc f replaced))
        (Vega_eval.Refbackend.sources_for Vega_target.Registry.riscv)
  in
  B.Conv.make corpus.C.vfs (B.Hooks.create corpus.C.vfs ~target:"RISCV" ~sources)

(* Fusion fires on a third of opcode pairs, so partners are pulled
   forward, and latencies vary with the opcode. *)
let fusing_conv () =
  riscv_with_sched_hooks (fun _ ->
      [
        ( "getInstrLatency",
          "unsigned getInstrLatency(unsigned Opcode) { return Opcode % 5 + 1; }" );
        ( "isHighLatencyDef",
          "bool isHighLatencyDef(unsigned Opcode) { return Opcode % 3 == 0; }" );
        ( "shouldScheduleAdjacent",
          "bool shouldScheduleAdjacent(unsigned FirstOpc, unsigned SecondOpc) \
           { return (FirstOpc + SecondOpc) % 3 == 0; }" );
      ])

(* The hooks raise on chosen opcodes, so the first error tells which call
   came first: shouldScheduleAdjacent in ascending order, then, from the
   last instruction up, isHighLatencyDef before getInstrLatency (on a
   store both raise). *)
let raising_conv () =
  riscv_with_sched_hooks (fun opc ->
      [
        ( "getInstrLatency",
          Printf.sprintf
            "unsigned getInstrLatency(unsigned Opcode) { if (Opcode == %d || \
             Opcode == %d) llvm_unreachable(\"latency\"); return 1; }"
            (opc "LDri") (opc "STri") );
        ( "isHighLatencyDef",
          Printf.sprintf
            "bool isHighLatencyDef(unsigned Opcode) { if (Opcode == %d) \
             llvm_unreachable(\"high\"); return false; }"
            (opc "STri") );
        ( "shouldScheduleAdjacent",
          Printf.sprintf
            "bool shouldScheduleAdjacent(unsigned FirstOpc, unsigned SecondOpc) \
             { if (FirstOpc == %d) llvm_unreachable(\"after mul\"); if \
             (SecondOpc == %d) llvm_unreachable(\"before sub\"); return \
             false; }"
            (opc "MULrr") (opc "SUBrr") );
      ])

let sched_props =
  let prop name conv =
    let conv = lazy (conv ()) in
    QCheck.Test.make ~name ~count:200 block_arb (fun drawn ->
        sched_matches_reference (Lazy.force conv) drawn)
  in
  List.map QCheck_alcotest.to_alcotest
    [
      prop "scheduler = reference (RISCV)" (fun () -> conv_for "RISCV");
      prop "scheduler = reference (fusing hooks)" fusing_conv;
      prop "scheduler = reference (raising hooks)" raising_conv;
    ]

let suite =
  [
    Alcotest.test_case "riscv full program matrix" `Slow test_riscv_all_programs;
    Alcotest.test_case "big-endian target" `Slow test_big_endian_target;
    Alcotest.test_case "small embedded target" `Quick test_small_target;
    Alcotest.test_case "-O3 speedup" `Quick test_o3_speedup;
    Alcotest.test_case "hardware loops" `Quick test_hwloop_applies;
    Alcotest.test_case "SIMD vectorization" `Quick test_simd_applies;
    Alcotest.test_case "madd combining" `Quick test_madd_combine;
    Alcotest.test_case "branch relaxation" `Quick test_relaxation_fires;
    Alcotest.test_case "asm roundtrip" `Slow test_asm_roundtrip;
    Alcotest.test_case "disassembler" `Quick test_disasm;
    Alcotest.test_case "relocations" `Quick test_relocations_emitted;
    Alcotest.test_case "hook errors propagate" `Quick test_hook_error_propagates;
  ]
  @ sched_props
