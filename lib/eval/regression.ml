module B = Vega_backend
module I = Vega_mc.Mcinst
module P = Vega_ir.Programs

type case_artifacts = {
  ca_case : string;
  ca_opt : string;
  ca_output : int list;
  ca_cycles : int;
  ca_text : int array;
  ca_data : int array;
  ca_relocs : I.reloc list;
  ca_asm : string;
  ca_disasm : string option;
}

type failure = { f_case : string; f_reason : string }

let is_timeout f =
  String.length f.f_reason >= 7 && String.sub f.f_reason 0 7 = "timeout"

let default_cases = P.regression

let opt_name = function B.Compiler.O0 -> "O0" | B.Compiler.O3 -> "O3"

let run_case conv (c : P.case) ~opt =
  let out = B.Compiler.compile conv ~opt (P.modul_of c) in
  let r = Vega_sim.Machine.run conv out.B.Compiler.emitted ~entry:c.P.entry ~args:c.P.args in
  match r.Vega_sim.Machine.status with
  | Vega_sim.Machine.Trap m -> Error (Printf.sprintf "trap: %s" m)
  | Vega_sim.Machine.Timeout f ->
      Error (Printf.sprintf "timeout: simulator fuel (%d) exhausted" f)
  | Vega_sim.Machine.Hook_timeout f ->
      Error (Printf.sprintf "timeout: interpreter fuel (%d) exhausted" f)
  | Vega_sim.Machine.Finished _ -> (
      match B.Asmparser.roundtrip_ok conv out.B.Compiler.emitted with
      | Error m -> Error (Printf.sprintf "assembler round-trip: %s" m)
      | Ok () ->
          let disasm =
            match B.Disasm.decode conv out.B.Compiler.emitted.B.Emitter.obj with
            | Ok text -> Ok (Some text)
            | Error "no disassembler" -> Ok None
            | Error m -> Error m
          in
          (match disasm with
          | Error m -> Error (Printf.sprintf "disassembler: %s" m)
          | Ok disasm ->
              Ok
                {
                  ca_case = c.P.name;
                  ca_opt = opt_name opt;
                  ca_output = r.Vega_sim.Machine.output;
                  ca_cycles = r.Vega_sim.Machine.cycles;
                  ca_text = out.B.Compiler.emitted.B.Emitter.obj.I.text;
                  ca_data = out.B.Compiler.emitted.B.Emitter.obj.I.data;
                  ca_relocs = out.B.Compiler.emitted.B.Emitter.obj.I.relocs;
                  ca_asm = out.B.Compiler.emitted.B.Emitter.asm;
                  ca_disasm = disasm;
                }))

(* Every stage of a case runs under one handler, so a misbehaving hook
   reads as a typed failure whichever stage met it: the assembler parser
   and the disassembler catch only [Hook_error] themselves. *)
let compile_case conv c ~opt =
  match run_case conv c ~opt with
  | r -> r
  | exception B.Hooks.Hook_error (h, m) -> Error (Printf.sprintf "hook %s: %s" h m)
  | exception Vega_srclang.Interp.Runtime_error m -> Error (Printf.sprintf "interp: %s" m)
  | exception Vega_srclang.Interp.Fuel_exhausted f ->
      Error (Printf.sprintf "timeout: interpreter fuel (%d) exhausted" f)
  | exception Invalid_argument m -> Error (Printf.sprintf "internal: %s" m)

let artifacts_for vfs (p : Vega_target.Profile.t) ~sources ~cases =
  match B.Hooks.create vfs ~target:p.Vega_target.Profile.name ~sources with
  | hooks -> (
      match B.Conv.make hooks with
      | conv ->
          let out = ref [] and err = ref None in
          List.iter
            (fun c ->
              if !err = None then
                List.iter
                  (fun opt ->
                    if !err = None then
                      match compile_case conv c ~opt with
                      | Ok a -> out := a :: !out
                      | Error m -> err := Some { f_case = c.P.name; f_reason = m })
                  [ B.Compiler.O0; B.Compiler.O3 ])
            cases;
          (match !err with
          | Some f -> Error f
          | None -> Ok (List.rev !out))
      | exception B.Hooks.Hook_error (h, m) ->
          Error { f_case = "<conv>"; f_reason = Printf.sprintf "hook %s: %s" h m }
      | exception Vega_srclang.Interp.Fuel_exhausted f ->
          Error
            {
              f_case = "<conv>";
              f_reason = Printf.sprintf "timeout: interpreter fuel (%d) exhausted" f;
            })
  | exception B.Hooks.Hook_error (h, m) ->
      Error { f_case = "<hooks>"; f_reason = Printf.sprintf "hook %s: %s" h m }
  | exception Vega_srclang.Interp.Fuel_exhausted f ->
      Error
        {
          f_case = "<hooks>";
          f_reason = Printf.sprintf "timeout: interpreter fuel (%d) exhausted" f;
        }

let reference_artifacts vfs p ?(cases = default_cases) () =
  match artifacts_for vfs p ~sources:(Vega_corpus.Corpus.reference_sources p) ~cases with
  | Ok a -> a
  | Error f ->
      invalid_arg
        (Printf.sprintf "reference backend for %s failed on %s: %s"
           p.Vega_target.Profile.name f.f_case f.f_reason)

(* VIR interpreter print streams by case name, computed once per process;
   the lock makes the table safe to share between domains. *)
let goldens : (string, int list option) Hashtbl.t = Hashtbl.create 64
let goldens_lock = Mutex.create ()

let golden_of name =
  Mutex.protect goldens_lock (fun () ->
      match Hashtbl.find_opt goldens name with
      | Some g -> g
      | None ->
          let g = Option.map P.golden (P.find name) in
          Hashtbl.add goldens name g;
          g)

let compare_artifacts (got : case_artifacts) (want : case_artifacts) =
  let golden = Option.value (golden_of want.ca_case) ~default:want.ca_output in
  if got.ca_output <> golden then Error "program output differs from golden run"
  else if got.ca_text <> want.ca_text then Error "encoded text section differs"
  else if got.ca_data <> want.ca_data then Error "data section differs"
  else if got.ca_relocs <> want.ca_relocs then Error "relocation records differ"
  else if got.ca_asm <> want.ca_asm then Error "assembly text differs"
  else if got.ca_disasm <> want.ca_disasm then Error "disassembly differs"
  else Ok ()

let check_sources vfs p ~sources ~reference ?(cases = default_cases) () =
  match artifacts_for vfs p ~sources ~cases with
  | Error f -> Error f
  | Ok artifacts ->
      let rec cmp = function
        | [] -> Ok ()
        | (got, want) :: rest -> (
            match compare_artifacts got want with
            | Ok () -> cmp rest
            | Error m ->
                Error
                  {
                    f_case = Printf.sprintf "%s/%s" got.ca_case got.ca_opt;
                    f_reason = m;
                  })
      in
      if List.length artifacts <> List.length reference then
        Error { f_case = "<suite>"; f_reason = "artifact count mismatch" }
      else cmp (List.combine artifacts reference)

let pass1 vfs p ~reference ~fname ~replacement ?(cases = default_cases) () =
  let base = Vega_corpus.Corpus.reference_sources p in
  let sources =
    match replacement with
    | Some f -> (fname, f) :: List.remove_assoc fname base
    | None -> List.remove_assoc fname base
  in
  check_sources vfs p ~sources ~reference ~cases ()
