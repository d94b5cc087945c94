(** The backend corpus: for every target, the rendered description-file
    tree plus the reference BackendC implementation of every interface
    function — the stand-in for the paper's 101 GitHub LLVM backends. *)

module P = Vega_target.Profile
module Ast = Vega_srclang.Ast
module Vfs = Vega_tdlang.Vfs

type impl = {
  target : string;
  fn : Ast.func;
  helpers : Ast.func list;
      (** local (non-interface) callees, e.g. ARM's GetRelocTypeInner;
          pre-processing inlines them (Sec. 3.1) *)
}

type group = { spec : Spec.t; impls : impl list }

type t = {
  vfs : Vfs.t;
  groups : group list;  (** one per interface function, training targets only *)
}

let all_specs : Spec.t list =
  Spec_sel.all @ Spec_reg.all @ Spec_opt.all @ Spec_sch.all @ Spec_emi.all
  @ Spec_ass.all @ Spec_dis.all

let find_spec fname = List.find_opt (fun (s : Spec.t) -> s.fname = fname) all_specs

(* ARM (as in the paper's Fig. 2) hides the body of getRelocType behind a
   local helper; pre-processing must inline it. *)
let wrapper_targets = [ "ARM" ]

let split_wrapper (p : P.t) (fn : Ast.func) =
  if fn.Ast.name = "getRelocType" && List.mem p.name wrapper_targets then begin
    let helper_name = "GetRelocTypeInner" in
    let helper =
      { fn with Ast.cls = None; name = helper_name }
    in
    let args = List.map (fun (prm : Ast.param) -> Ast.Id prm.pname) fn.params in
    let wrapper =
      { fn with Ast.body = [ Ast.Return (Some (Ast.Call (helper_name, args))) ] }
    in
    (wrapper, [ helper ])
  end
  else (fn, [])

(** Reference implementation (post-split) for one spec and target. *)
let reference (spec : Spec.t) (p : P.t) =
  Option.map (split_wrapper p) (Spec.render spec p)

(** Fully-inlined reference (what pass@1 compares against behaviourally). *)
let reference_inlined (spec : Spec.t) (p : P.t) = Spec.render spec p

let build ?(targets = Vega_target.Registry.training) () =
  let vfs = Vfs.create () in
  Descfiles.render_llvm_common vfs;
  List.iter (Descfiles.render_target vfs) Vega_target.Registry.all;
  let groups =
    List.map
      (fun spec ->
        let impls =
          List.filter_map
            (fun p ->
              match reference spec p with
              | Some (fn, helpers) -> Some { target = p.P.name; fn; helpers }
              | None -> None)
            targets
        in
        { spec; impls })
      all_specs
  in
  { vfs; groups }

(** Total statement-line count across a group's implementations. *)
let group_statements g =
  List.fold_left
    (fun acc impl ->
      acc + List.length (Vega_srclang.Lines.of_func impl.fn))
    0 g.impls

let stats t =
  let groups = List.length t.groups in
  let functions = List.fold_left (fun a g -> a + List.length g.impls) 0 t.groups in
  let statements = List.fold_left (fun a g -> a + group_statements g) 0 t.groups in
  (groups, functions, statements)
