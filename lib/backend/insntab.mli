(** Instruction table of one target, built from its InstrInfo.td records
    (the TableGen-generated side of LLVM). Semantics are keyed by the
    canonical enum name — the ISA-level meaning the simulator gives each
    machine operation. *)

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
  operand_type : string;  (** "", "OPERAND_PCREL", "OPERAND_IMM" *)
  imm_bits : int;
  sem : sem;
}

type t

val build : Vega_tdlang.Catalog.t -> t
(** From the Instruction records visible in the catalog. Records whose
    enum name is not canonical are skipped. *)

val by_opcode : t -> int -> info option
val by_enum : t -> string -> info option
val opcode_exn : t -> string -> int
(** Opcode of a canonical enum name. @raise Invalid_argument. *)

val all : t -> info list
