type alu = Aadd | Asub | Aand | Aor | Axor | Ashl | Ashr | Aslt
type cond = Ceq | Cne | Clt | Cge

type sem =
  | Salu of alu
  | Salui of alu
  | Smovi
  | Smov
  | Smul
  | Sdiv
  | Sload
  | Sstore
  | Sbranch of cond
  | Sjump
  | Scall
  | Sret
  | Snop
  | Smadd
  | Svadd
  | Svmul
  | Slpsetup
  | Slpend

type info = {
  enum_name : string;
  mnemonic : string;
  opcode : int;
  latency : int;
  micro_ops : int;
  operand_type : string;
  imm_bits : int;
  sem : sem;
}

type t = {
  infos : info list;
  opc : (int, info) Hashtbl.t;
  enm : (string, info) Hashtbl.t;
}

let sem_of_enum = function
  | "ADDrr" -> Some (Salu Aadd)
  | "SUBrr" -> Some (Salu Asub)
  | "ANDrr" -> Some (Salu Aand)
  | "ORrr" -> Some (Salu Aor)
  | "XORrr" -> Some (Salu Axor)
  | "SHLrr" -> Some (Salu Ashl)
  | "SHRrr" -> Some (Salu Ashr)
  | "SLTrr" -> Some (Salu Aslt)
  | "ADDri" -> Some (Salui Aadd)
  | "ANDri" -> Some (Salui Aand)
  | "ORri" -> Some (Salui Aor)
  | "SHLri" -> Some (Salui Ashl)
  | "SHRri" -> Some (Salui Ashr)
  | "SLTri" -> Some (Salui Aslt)
  | "LIi" -> Some Smovi
  | "MOVrr" -> Some Smov
  | "MULrr" -> Some Smul
  | "DIVrr" -> Some Sdiv
  | "LDri" -> Some Sload
  | "STri" -> Some Sstore
  | "BEQ" -> Some (Sbranch Ceq)
  | "BNE" -> Some (Sbranch Cne)
  | "BLT" -> Some (Sbranch Clt)
  | "BGE" -> Some (Sbranch Cge)
  | "JMP" -> Some Sjump
  | "CALL" -> Some Scall
  | "RET" -> Some Sret
  | "NOP" -> Some Snop
  | "MADDrr" -> Some Smadd
  | "VADDrr" -> Some Svadd
  | "VMULrr" -> Some Svmul
  | "LPSETUP" -> Some Slpsetup
  | "LPEND" -> Some Slpend
  | _ -> None

let str_field (r : Vega_tdlang.Td_ast.record) field =
  match List.assoc_opt field r.fields with
  | Some (Vega_tdlang.Td_ast.Vstr s) -> Some s
  | _ -> None

let int_field (r : Vega_tdlang.Td_ast.record) field =
  match List.assoc_opt field r.fields with
  | Some (Vega_tdlang.Td_ast.Vint n) -> Some n
  | _ -> None

let build catalog =
  let infos =
    List.filter_map
      (fun (_, (r : Vega_tdlang.Td_ast.record)) ->
        if r.rec_class <> "Instruction" then None
        else
          let enum_name = Option.value ~default:r.rec_name (str_field r "EnumName") in
          match sem_of_enum enum_name with
          | None -> None
          | Some sem ->
              Some
                {
                  enum_name;
                  mnemonic = Option.value ~default:"" (str_field r "Mnemonic");
                  opcode = Option.value ~default:0 (int_field r "Opcode");
                  latency = Option.value ~default:1 (int_field r "Latency");
                  micro_ops = Option.value ~default:1 (int_field r "MicroOps");
                  operand_type = Option.value ~default:"" (str_field r "OperandType");
                  imm_bits = Option.value ~default:16 (int_field r "ImmBits");
                  sem;
                })
      (Vega_tdlang.Catalog.records catalog)
  in
  let opc = Hashtbl.create 64 and enm = Hashtbl.create 64 in
  List.iter
    (fun i ->
      Hashtbl.replace opc i.opcode i;
      Hashtbl.replace enm i.enum_name i)
    infos;
  { infos; opc; enm }

let by_opcode t o = Hashtbl.find_opt t.opc o
let by_enum t e = Hashtbl.find_opt t.enm e

let opcode_exn t e =
  match by_enum t e with
  | Some i -> i.opcode
  | None -> invalid_arg (Printf.sprintf "Insntab.opcode_exn: no %s" e)

let all t = t.infos
