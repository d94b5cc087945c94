module Interp = Vega_srclang.Interp
module Mc = Vega_mc.Mcinst

exception Hook_error of string * string

type t = {
  target : string;
  catalog : Vega_tdlang.Catalog.t;
  table : (string, Vega_srclang.Ast.func) Hashtbl.t;
      (** hook name -> implementation; the first binding in [sources] *)
  env : Interp.env;
}

let build_env catalog sources =
  let env = Interp.create_env () in
  List.iter (fun (name, v) -> Interp.add_enum env name v)
    (Vega_tdlang.Catalog.resolved_members catalog);
  (* TableGen-style globals: scalar fields of the Target / SchedModel /
     RegisterClass records are visible to hook bodies by name, the way
     generated LLVM subtarget accessors expose .td values *)
  List.iter
    (fun (_, (r : Vega_tdlang.Td_ast.record)) ->
      if List.mem r.rec_class [ "Target"; "SchedMachineModel"; "RegisterClass" ]
      then
        List.iter
          (fun (field, v) ->
            match v with
            | Vega_tdlang.Td_ast.Vint n -> Interp.add_global env field (Interp.VInt n)
            | Vega_tdlang.Td_ast.Vstr s -> Interp.add_global env field (Interp.VStr s)
            | Vega_tdlang.Td_ast.Vid _ | Vega_tdlang.Td_ast.Vlist _ -> ())
          r.fields)
    (Vega_tdlang.Catalog.records catalog);
  Interp.add_func env "llvm_unreachable" (fun args ->
      let msg =
        match args with Interp.VStr s :: _ -> s | _ -> "unreachable"
      in
      raise (Interp.Runtime_error ("llvm_unreachable: " ^ msg)));
  Interp.add_func env "report_fatal_error" (fun args ->
      let msg = match args with Interp.VStr s :: _ -> s | _ -> "fatal" in
      raise (Interp.Runtime_error ("report_fatal_error: " ^ msg)));
  (* sibling hooks callable as free functions *)
  List.iter
    (fun (fname, fn) ->
      Interp.add_func env fname (fun args -> Interp.call env fn args))
    sources;
  env

let create vfs ~target ~sources =
  let dirs = Vega_tdlang.Vfs.llvmdirs @ Vega_tdlang.Vfs.tgtdirs target in
  let catalog = Vega_tdlang.Catalog.build vfs dirs in
  let table = Hashtbl.create (2 * List.length sources) in
  List.iter
    (fun (fname, fn) ->
      if not (Hashtbl.mem table fname) then Hashtbl.add table fname fn)
    sources;
  { target; catalog; table; env = build_env catalog sources }

let target t = t.target
let has t fname = Hashtbl.mem t.table fname

let call t fname args =
  match Hashtbl.find_opt t.table fname with
  | None -> raise (Hook_error (fname, "hook not implemented"))
  | Some fn -> (
      match Interp.call t.env fn args with
      | v -> v
      | exception Interp.Runtime_error msg -> raise (Hook_error (fname, msg)))

let call_int t fname args =
  match call t fname args with
  | v -> (
      match Interp.to_int v with
      | n -> n
      | exception Interp.Runtime_error msg -> raise (Hook_error (fname, msg)))

let call_bool t fname args =
  match call t fname args with
  | Interp.VBool b -> b
  | v -> (
      match Interp.to_int v with
      | n -> n <> 0
      | exception Interp.Runtime_error msg -> raise (Hook_error (fname, msg)))

let enum_value_opt t name = Vega_tdlang.Catalog.member_value t.catalog name

let enum_value t name =
  match enum_value_opt t name with
  | Some v -> v
  | None -> raise (Hook_error ("enum", "unknown enum member " ^ name))

let vint n = Interp.VInt n
let vbool b = Interp.VBool b
let vstr s = Interp.VStr s

let mcoperand (op : Mc.operand) =
  let is_reg = match op with Mc.Oreg _ -> true | _ -> false in
  let is_imm = match op with Mc.Oreg _ -> false | _ -> true in
  Interp.obj "MCOperand" (fun m args ->
      match (m, args) with
      | "isReg", [] -> Interp.VBool is_reg
      | "isImm", [] -> Interp.VBool is_imm
      | "getReg", [] -> (
          match op with
          | Mc.Oreg r -> Interp.VInt r
          | _ -> raise (Interp.Runtime_error "getReg on non-register"))
      | "getImm", [] -> (
          match op with
          | Mc.Oimm n -> Interp.VInt n
          | Mc.Olabel _ | Mc.Osym _ -> Interp.VInt 0
          | Mc.Oreg _ -> raise (Interp.Runtime_error "getImm on register"))
      | _ -> raise (Interp.Runtime_error ("MCOperand." ^ m)))

let mcinst (i : Mc.inst) =
  let ops = Array.of_list i.ops in
  Interp.obj "MCInst" (fun m args ->
      match (m, args) with
      | "getOpcode", [] -> Interp.VInt i.opcode
      | "getNumOperands", [] -> Interp.VInt (Array.length ops)
      | "getOperand", [ idx ] ->
          let k = Interp.to_int idx in
          if k < 0 || k >= Array.length ops then
            raise (Interp.Runtime_error "getOperand out of range")
          else mcoperand ops.(k)
      | _ -> raise (Interp.Runtime_error ("MCInst." ^ m)))

let mcfixup ~kind =
  Interp.obj "MCFixup" (fun m args ->
      match (m, args) with
      | "getTargetKind", [] | "getKind", [] -> Interp.VInt kind
      | "getOffset", [] -> Interp.VInt 0
      | _ -> raise (Interp.Runtime_error ("MCFixup." ^ m)))

let mcvalue ~variant =
  Interp.obj "MCValue" (fun m args ->
      match (m, args) with
      | "getAccessVariant", [] -> Interp.VInt variant
      | _ -> raise (Interp.Runtime_error ("MCValue." ^ m)))
