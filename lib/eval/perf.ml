(** Fig. 10: benchmark performance of the VEGA-built compilers.

    The "VEGA compiler" is the generated backend with its inaccurate
    functions replaced by their base-compiler counterparts (Sec. 4.1.4 /
    4.3); speedups are -O3 over -O0 cycle counts on the target simulator,
    compared against the base compiler. *)

module B = Vega_backend
module P = Vega_ir.Programs

type bench_point = {
  bp_case : string;
  bp_base_speedup : float;  (** base compiler -O3 speedup over -O0 *)
  bp_vega_speedup : float;  (** corrected VEGA-built compiler *)
}

(* hook sources of the corrected VEGA backend: accurate generated
   functions, reference for the rest *)
let corrected_sources (p : Vega_target.Profile.t) (te : Metrics.target_eval)
    (generated : (string * Vega_srclang.Ast.func) list) =
  List.map
    (fun (fname, ref_fn) ->
      let fe =
        List.find_opt (fun (f : Metrics.fn_eval) -> f.Metrics.fe_fname = fname)
          te.Metrics.te_fns
      in
      match fe with
      | Some fe when fe.Metrics.fe_pass -> (
          match List.assoc_opt fname generated with
          | Some g -> (fname, g)
          | None -> (fname, ref_fn))
      | _ -> (fname, ref_fn))
    (Vega_corpus.Corpus.reference_sources p)

let speedup conv (c : P.case) =
  let cycles opt =
    let out = B.Compiler.compile conv ~opt (P.modul_of c) in
    let r = Vega_sim.Machine.run conv out.B.Compiler.emitted ~entry:c.P.entry ~args:c.P.args in
    match r.Vega_sim.Machine.status with
    | Vega_sim.Machine.Finished _ -> Some (max 1 r.Vega_sim.Machine.cycles)
    | Vega_sim.Machine.Trap _ | Vega_sim.Machine.Timeout _
    | Vega_sim.Machine.Hook_timeout _ ->
        None
  in
  match (cycles B.Compiler.O0, cycles B.Compiler.O3) with
  | Some c0, Some c3 -> Some (float_of_int c0 /. float_of_int c3)
  | _ -> None

let run vfs (p : Vega_target.Profile.t) ~vega_sources
    ?(benches = P.benchmarks) () =
  let base_hooks =
    B.Hooks.create vfs ~target:p.Vega_target.Profile.name
      ~sources:(Vega_corpus.Corpus.reference_sources p)
  in
  let base_conv = B.Conv.make base_hooks in
  let vega_hooks =
    B.Hooks.create vfs ~target:p.Vega_target.Profile.name ~sources:vega_sources
  in
  let vega_conv = B.Conv.make vega_hooks in
  List.filter_map
    (fun c ->
      match (speedup base_conv c, speedup vega_conv c) with
      | Some b, Some v ->
          Some { bp_case = c.P.name; bp_base_speedup = b; bp_vega_speedup = v }
      | _ -> None)
    benches

(** Robustness check (Sec. 4.3): the corrected compiler passes the full
    regression suite with outputs matching the golden runs. *)
let robustness vfs (p : Vega_target.Profile.t) ~vega_sources () =
  let hooks =
    B.Hooks.create vfs ~target:p.Vega_target.Profile.name ~sources:vega_sources
  in
  let conv = B.Conv.make hooks in
  List.for_all
    (fun (c : P.case) ->
      List.for_all
        (fun opt ->
          match B.Compiler.compile conv ~opt (P.modul_of c) with
          | out -> (
              let r =
                Vega_sim.Machine.run conv out.B.Compiler.emitted ~entry:c.P.entry
                  ~args:c.P.args
              in
              match r.Vega_sim.Machine.status with
              | Vega_sim.Machine.Finished _ -> r.Vega_sim.Machine.output = P.golden c
              | Vega_sim.Machine.Trap _ | Vega_sim.Machine.Timeout _
              | Vega_sim.Machine.Hook_timeout _ ->
                  false)
          | exception _ -> false)
        [ B.Compiler.O0; B.Compiler.O3 ])
    (P.regression @ P.benchmarks)
