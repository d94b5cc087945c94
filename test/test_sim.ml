(* Simulator tests: the paged-memory simulator against the flat-array
   one it replaced, and memory cases that paging could get wrong. *)

module B = Vega_backend
module C = Vega_corpus.Corpus
module P = Vega_ir.Programs
module M = Vega_sim.Machine

(* The simulator as it was before memory was paged, kept verbatim as the
   executable reference: one flat zero-filled array per run, and the
   data section, convention registers and cycle-model hooks set up
   before the handler (so some failures there raise). *)
module Ref_machine = struct
  module I = Vega_mc.Mcinst
  open Vega_sim.Machine

  exception Trap_exc of string
  exception Fuel_exc of int

  let trap fmt = Printf.ksprintf (fun s -> raise (Trap_exc s)) fmt

  let wrap n = (n land 0xFFFFFFFF) - (if n land 0x80000000 <> 0 then 0x100000000 else 0)

  let run ?(fuel = 4_000_000) ?(mem_words = 65_536) (conv : B.Conv.t)
      (prog : B.Emitter.t) ~entry ~args =
    let hooks = conv.B.Conv.hooks in
    let tab = conv.B.Conv.tab in
    let nregs = max conv.B.Conv.nregs 64 in
    let regs = Array.make nregs 0 in
    let mem = Array.make mem_words 0 in
    (* data section *)
    let data = prog.B.Emitter.obj.I.data in
    Array.blit data 0 mem (prog.B.Emitter.data_base / 4) (Array.length data);
    (* stack at the top of memory *)
    regs.(conv.B.Conv.sp) <- (mem_words * 4) - 16;
    regs.(conv.B.Conv.fp) <- (mem_words * 4) - 16;
    List.iteri
      (fun i a ->
        if i < List.length conv.B.Conv.arg_regs then
          regs.(List.nth conv.B.Conv.arg_regs i) <- a)
      args;
    let zero = conv.B.Conv.zero in
    let rd r =
      if r < 0 || r >= nregs then trap "bad register %d" r
      else match zero with Some z when z = r -> 0 | _ -> regs.(r)
    in
    let wr r v =
      if r < 0 || r >= nregs then trap "bad register %d" r
      else match zero with Some z when z = r -> () | _ -> regs.(r) <- wrap v
    in
    let mrd byte =
      if byte land 3 <> 0 then trap "unaligned load at %d" byte;
      let w = byte / 4 in
      if w < 0 || w >= mem_words then trap "load out of bounds at %d" byte;
      mem.(w)
    in
    let mwr byte v =
      if byte land 3 <> 0 then trap "unaligned store at %d" byte;
      let w = byte / 4 in
      if w < 0 || w >= mem_words then trap "store out of bounds at %d" byte;
      mem.(w) <- wrap v
    in
    let insts = prog.B.Emitter.insts in
    let n = Array.length insts in
    let label_idx l =
      match B.Emitter.label_index prog l with
      | Some i -> i
      | None -> trap "unknown label %s" l
    in
    let sym_addr s =
      match B.Emitter.find_sym prog s with
      | Some a -> a
      | None -> trap "unknown symbol %s" s
    in
    (* cached hook-driven cycle parameters *)
    let lat_cache = Hashtbl.create 32 and uop_cache = Hashtbl.create 32 in
    let latency opc =
      match Hashtbl.find_opt lat_cache opc with
      | Some l -> l
      | None ->
          let l = max 1 (B.Hooks.call_int hooks "getInstrLatency" [ B.Hooks.vint opc ]) in
          Hashtbl.replace lat_cache opc l;
          l
    in
    let uops opc =
      match Hashtbl.find_opt uop_cache opc with
      | Some u -> u
      | None ->
          let u = max 0 (B.Hooks.call_int hooks "getNumMicroOps" [ B.Hooks.vint opc ]) in
          Hashtbl.replace uop_cache opc u;
          u
    in
    let issue_width = max 1 (B.Hooks.call_int hooks "getIssueWidth" []) in
    let load_latency = max 1 (B.Hooks.call_int hooks "getLoadLatency" []) in
    let mispredict = max 0 (B.Hooks.call_int hooks "getMispredictPenalty" []) in
    (* scoreboard *)
    let ready = Array.make nregs 0 in
    let cycle = ref 0 and slot = ref 0 in
    let charge_issue srcs u =
      let avail =
        List.fold_left (fun acc r -> max acc ready.(r)) !cycle srcs
      in
      if avail > !cycle then begin
        cycle := avail;
        slot := 0
      end;
      slot := !slot + u;
      if !slot >= issue_width then begin
        let extra = !slot / issue_width in
        cycle := !cycle + extra;
        slot := !slot mod issue_width
      end
    in
    let branch_penalty () =
      cycle := !cycle + mispredict;
      slot := 0
    in
    let output = ref [] in
    let call_stack = ref [] in
    let loop_stack = ref [] in
    let retired = ref 0 in
    let finished = ref None and running = ref true in
    let ret_val () = Some (rd conv.B.Conv.ret_reg) in
    let status =
      try
        (* inside the handler: an unknown entry label must surface as a
           Trap status, not as an escaping exception *)
        let pc = ref (label_idx entry) in
        while !running do
          if !retired >= fuel then raise (Fuel_exc fuel);
          if !pc < 0 || !pc >= n then trap "pc out of range";
          let inst = insts.(!pc) in
          incr retired;
          let info =
            match B.Insntab.by_opcode tab inst.I.opcode with
            | Some i -> i
            | None -> trap "illegal opcode %d" inst.I.opcode
          in
          let opc = inst.I.opcode in
          let ops = inst.I.ops in
          let reg_srcs =
            List.filter_map (function I.Oreg r -> Some r | _ -> None) ops
          in
          let ovalue = function
            | I.Oreg r -> rd r
            | I.Oimm v -> v
            | I.Osym (s, I.Sym_hi) -> sym_addr s land lnot 0xfff
            | I.Osym (s, I.Sym_lo) -> sym_addr s land 0xfff
            | I.Osym (s, I.Sym_abs) -> sym_addr s
            | I.Olabel l -> sym_addr l
          in
          let next = ref (!pc + 1) in
          (match (info.B.Insntab.sem, ops) with
          | B.Insntab.Salu a, [ I.Oreg d; o1; o2 ] | B.Insntab.Salui a, [ I.Oreg d; o1; o2 ]
            ->
              let x = ovalue o1 and y = ovalue o2 in
              charge_issue (List.tl reg_srcs) (uops opc);
              let v =
                match a with
                | B.Insntab.Aadd -> x + y
                | B.Insntab.Asub -> x - y
                | B.Insntab.Aand -> x land y
                | B.Insntab.Aor -> x lor y
                | B.Insntab.Axor -> x lxor y
                | B.Insntab.Ashl -> x lsl (y land 31)
                | B.Insntab.Ashr -> (x land 0xFFFFFFFF) lsr (y land 31)
                | B.Insntab.Aslt -> if x < y then 1 else 0
              in
              wr d v;
              ready.(d) <- !cycle + latency opc
          | B.Insntab.Smovi, [ I.Oreg d; o ] ->
              charge_issue [] (uops opc);
              wr d (ovalue o);
              ready.(d) <- !cycle + latency opc
          | B.Insntab.Smov, [ I.Oreg d; I.Oreg s ] ->
              charge_issue [ s ] (uops opc);
              wr d (rd s);
              ready.(d) <- !cycle + latency opc
          | B.Insntab.Smul, [ I.Oreg d; o1; o2 ] ->
              charge_issue (List.tl reg_srcs) (uops opc);
              wr d (ovalue o1 * ovalue o2);
              ready.(d) <- !cycle + latency opc
          | B.Insntab.Sdiv, [ I.Oreg d; o1; o2 ] ->
              let y = ovalue o2 in
              if y = 0 then trap "division by zero";
              charge_issue (List.tl reg_srcs) (uops opc);
              wr d (ovalue o1 / y);
              ready.(d) <- !cycle + latency opc
          | B.Insntab.Smadd, [ I.Oreg d; o1; o2 ] ->
              charge_issue reg_srcs (uops opc);
              wr d (rd d + (ovalue o1 * ovalue o2));
              ready.(d) <- !cycle + latency opc
          | B.Insntab.Sload, [ I.Oreg d; I.Oreg base; o ] ->
              charge_issue [ base ] (uops opc);
              wr d (mrd (rd base + ovalue o));
              ready.(d) <- !cycle + max (latency opc) load_latency
          | B.Insntab.Sstore, [ I.Oreg v; I.Oreg base; o ] ->
              charge_issue [ v; base ] (uops opc);
              mwr (rd base + ovalue o) (rd v)
          | B.Insntab.Sbranch c, [ I.Oreg a; I.Oreg b; I.Olabel l ] ->
              charge_issue [ a; b ] (uops opc);
              let taken =
                match c with
                | B.Insntab.Ceq -> rd a = rd b
                | B.Insntab.Cne -> rd a <> rd b
                | B.Insntab.Clt -> rd a < rd b
                | B.Insntab.Cge -> rd a >= rd b
              in
              if taken then begin
                next := label_idx l;
                branch_penalty ()
              end
          | B.Insntab.Sjump, [ I.Olabel l ] ->
              charge_issue [] (uops opc);
              next := label_idx l;
              slot := 0
          | B.Insntab.Scall, [ I.Olabel f ] ->
              charge_issue [] (uops opc);
              if f = "print" then begin
                match conv.B.Conv.arg_regs with
                | a0 :: _ -> output := rd a0 :: !output
                | [] -> trap "print without argument registers"
              end
              else begin
                call_stack := (!pc + 1) :: !call_stack;
                next := label_idx f;
                slot := 0
              end
          | B.Insntab.Sret, [] -> (
              charge_issue [] (uops opc);
              match !call_stack with
              | ra :: rest ->
                  call_stack := rest;
                  next := ra;
                  slot := 0
              | [] ->
                  running := false;
                  finished := ret_val ())
          | B.Insntab.Slpsetup, [ I.Oimm trip; I.Olabel l ] ->
              charge_issue [] (uops opc);
              loop_stack := (label_idx l, ref trip) :: !loop_stack
          | B.Insntab.Slpend, [] -> (
              charge_issue [] (uops opc);
              match !loop_stack with
              | (start, count) :: rest ->
                  decr count;
                  if !count > 0 then next := start (* zero-overhead back edge *)
                  else loop_stack := rest
              | [] -> trap "lp.end without lp.setup")
          | (B.Insntab.Svadd | B.Insntab.Svmul), [ I.Oreg d; I.Oreg a; I.Oreg b ] ->
              charge_issue [ d; a; b ] (uops opc);
              let da = rd d and aa = rd a and ba = rd b in
              for k = 0 to 3 do
                let x = mrd (aa + (4 * k)) and y = mrd (ba + (4 * k)) in
                let v =
                  if info.B.Insntab.sem = B.Insntab.Svadd then x + y else x * y
                in
                mwr (da + (4 * k)) v
              done;
              cycle := !cycle + latency opc
          | B.Insntab.Snop, _ -> charge_issue [] (uops opc)
          | _, _ -> trap "malformed instruction %s" info.B.Insntab.enum_name);
          pc := !next
        done;
        Finished !finished
      with
      | Trap_exc msg -> Trap msg
      | Fuel_exc f -> Timeout f
      | Vega_srclang.Interp.Fuel_exhausted f -> Timeout f
      | B.Hooks.Hook_error (h, msg) -> Trap (Printf.sprintf "hook %s: %s" h msg)
    in
    { output = List.rev !output; cycles = !cycle; retired = !retired; status }
end

let corpus = lazy (C.build ())

let conv_for p = snd (Vega_eval.Refbackend.backend_for (Lazy.force corpus).C.vfs p)

(* [(output, cycles, retired, status)] of both simulators agree; where
   the reference raises, the paged one returns a trap or a timeout. *)
let agree conv (out : B.Compiler.output) (c : P.case) ~fuel ~mem_words =
  let run f = f ~fuel ~mem_words conv out.B.Compiler.emitted ~entry:c.P.entry ~args:c.P.args in
  let got = run (fun ~fuel ~mem_words -> M.run ~fuel ~mem_words) in
  match run (fun ~fuel ~mem_words -> Ref_machine.run ~fuel ~mem_words) with
  | want -> got = want
  | exception _ -> (
      match got.M.status with
      | M.Trap _ | M.Timeout _ | M.Hook_timeout _ -> true
      | M.Finished _ -> false)

let test_parity () =
  let runs = ref 0 in
  List.iter
    (fun (p : Vega_target.Profile.t) ->
      let conv = conv_for p in
      List.iter
        (fun (c : P.case) ->
          List.iter
            (fun opt ->
              let out = B.Compiler.compile conv ~opt (P.modul_of c) in
              List.iter
                (fun fuel ->
                  List.iter
                    (fun mem_words ->
                      incr runs;
                      if not (agree conv out c ~fuel ~mem_words) then
                        Alcotest.failf "%s %s %s fuel %d mem_words %d: simulators differ"
                          p.name c.P.name
                          (match opt with B.Compiler.O0 -> "O0" | B.Compiler.O3 -> "O3")
                          fuel mem_words)
                    [ 65_536; 65_000; 4_097 ])
                [ 4_000_000; 500 ])
            [ B.Compiler.O0; B.Compiler.O3 ])
        (P.regression @ P.benchmarks))
    Vega_target.Registry.all;
  Alcotest.(check bool) "ran the matrix" true (!runs > 1000)

let case name source = { P.name; source; entry = "main"; args = [] }

let run_case conv c =
  let out = B.Compiler.compile conv ~opt:B.Compiler.O0 (P.modul_of c) in
  M.run conv out.B.Compiler.emitted ~entry:c.P.entry ~args:c.P.args

(* word 32768, a page neither the data section nor the stack touches *)
let store_then_load =
  case "store_then_load"
    {|
func @main() {
entry:
  %r0 = mov 131072
  store 42, %r0, 0
  %r1 = load %r0, 0
  print %r1
  ret 0
}
|}

let load_untouched =
  case "load_untouched"
    {|
func @main() {
entry:
  %r0 = mov 131072
  %r1 = load %r0, 4
  print %r1
  %r2 = load %r0, 0
  print %r2
  ret 0
}
|}

let test_untouched_reads_zero () =
  let conv = conv_for Vega_target.Registry.riscv in
  let output c = (run_case conv c).M.output in
  Alcotest.(check (list int)) "fresh run" [ 0; 0 ] (output load_untouched);
  Alcotest.(check (list int)) "store then load" [ 42 ] (output store_then_load);
  Alcotest.(check (list int)) "after a run that stored there" [ 0; 0 ]
    (output load_untouched)

let test_store_traps () =
  let conv = conv_for Vega_target.Registry.riscv in
  let status c = (run_case conv c).M.status in
  let store addr =
    case "store_at"
      (Printf.sprintf
         {|
func @main() {
entry:
  %%r0 = mov %d
  store 7, %%r0, 0
  ret 0
}
|}
         addr)
  in
  let check name want c =
    match status c with
    | M.Trap m -> Alcotest.(check string) name want m
    | _ -> Alcotest.failf "%s: expected a trap" name
  in
  check "out of bounds" "store out of bounds at 262144" (store 262144);
  check "unaligned" "unaligned store at 131074" (store 131074)

let suite =
  [
    Alcotest.test_case "paged = flat simulator (all targets)" `Slow test_parity;
    Alcotest.test_case "untouched memory reads 0" `Quick test_untouched_reads_zero;
    Alcotest.test_case "bad stores trap" `Quick test_store_traps;
  ]
