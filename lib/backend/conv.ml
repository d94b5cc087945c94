type t = {
  hooks : Hooks.t;
  tab : Insntab.t;
  sp : int;
  fp : int;
  ra : int;
  ret_reg : int;
  arg_regs : int list;
  nregs : int;
  zero : int option;
  stack_align : int;
  word_bytes : int;
  reg_prefix : string;
  imm_marker : string;
  comment_char : string;
  big_endian : bool;
}

let str_of = function Some (Vega_tdlang.Td_ast.Vstr s) -> Some s | _ -> None

let make hooks =
  let target = Hooks.target hooks in
  let catalog = Hooks.catalog hooks in
  let tab = Insntab.build catalog in
  let field record f = Vega_tdlang.Catalog.record_field catalog ~record ~field:f in
  let sp = Hooks.call_int hooks "getStackRegister" [] in
  let fp = Hooks.call_int hooks "getFrameRegister" [] in
  let ra = Hooks.call_int hooks "getRARegister" [] in
  let ret_reg = Hooks.call_int hooks "getReturnRegister" [] in
  let nargs = Hooks.call_int hooks "getNumArgRegisters" [] in
  if nargs < 0 then
    raise (Hooks.Hook_error ("getNumArgRegisters", "negative register count"));
  let arg_regs =
    List.init nargs (fun i -> Hooks.call_int hooks "getArgRegister" [ Hooks.vint i ])
  in
  let nregs = Hooks.call_int hooks "getNumRegs" [] in
  let zero =
    if Hooks.has hooks "getZeroRegister" then
      match Hooks.call_int hooks "getZeroRegister" [] with
      | z -> Some z
      | exception Hooks.Hook_error _ -> None
    else None
  in
  let stack_align = Hooks.call_int hooks "getStackAlignment" [] in
  (* sanity against the isReservedReg hook: the stack/link registers must
     be reserved, the return register must not *)
  if not (Hooks.call_bool hooks "isReservedReg" [ Hooks.vint sp ]) then
    raise (Hooks.Hook_error ("isReservedReg", "stack register not reserved"));
  if not (Hooks.call_bool hooks "isReservedReg" [ Hooks.vint ra ]) then
    raise (Hooks.Hook_error ("isReservedReg", "link register not reserved"));
  if Hooks.call_bool hooks "isReservedReg" [ Hooks.vint ret_reg ] then
    raise (Hooks.Hook_error ("isReservedReg", "return register reserved"));
  {
    hooks;
    tab;
    sp;
    fp;
    ra;
    ret_reg;
    arg_regs;
    nregs;
    zero;
    stack_align = max 4 stack_align;
    word_bytes = 4;
    reg_prefix =
      Option.value ~default:"r" (str_of (field "GPR" "Prefix"));
    imm_marker = Option.value ~default:"" (str_of (field target "ImmMarker"));
    comment_char = Option.value ~default:"#" (str_of (field target "CommentChar"));
    big_endian =
      (match str_of (field target "Endianness") with
      | Some "big" -> true
      | Some _ | None -> false);
  }

let reg_name t i = Printf.sprintf "%s%d" t.reg_prefix i

let frame_offset t fi =
  Hooks.call_int t.hooks "getFrameIndexOffset" [ Hooks.vint fi ]
