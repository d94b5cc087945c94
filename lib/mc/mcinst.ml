(** Machine-code layer: target-neutral machine instructions, symbol
    references, fixups and relocation records — the data the EMI hooks
    manipulate. *)

(** Flavour of a symbol reference on an operand; drives which fixup kind
    the emitter requests ([getHiFixup], [getLoFixup], ...). *)
type sym_kind =
  | Sym_hi  (** upper part of an absolute address *)
  | Sym_lo  (** lower part of an absolute address *)
  | Sym_abs  (** full-width data word *)
[@@deriving show { with_path = false }, eq]

type operand =
  | Oreg of int
  | Oimm of int
  | Olabel of string  (** branch / call target *)
  | Osym of string * sym_kind  (** data symbol *)
[@@deriving show { with_path = false }, eq]

type inst = { opcode : int; ops : operand list }
[@@deriving show { with_path = false }, eq]

type mblock = { mlabel : string; mutable minsts : inst list }
[@@deriving show { with_path = false }]

type mfunc = {
  mname : string;
  mutable mblocks : mblock list;
  mutable frame_size : int;  (** bytes, set by register allocation *)
}
[@@deriving show { with_path = false }]

type fixup = {
  fx_offset : int;  (** byte offset of the instruction in the section *)
  fx_kind : int;  (** target fixup enum value *)
  fx_sym : string;
  fx_addend : int;
}
[@@deriving show { with_path = false }, eq]

type reloc = {
  r_offset : int;
  r_type : int;  (** ELF relocation type value *)
  r_sym : string;
}
[@@deriving show { with_path = false }, eq]

(** Final object: encoded text section plus data and relocations. *)
type obj = {
  text : int array;  (** encoded 32-bit instruction words, fixups applied *)
  text_raw : int array;
      (** pre-fixup words — what a disassembler of the relocatable object
          sees (objdump-style) *)
  data : int array;
  relocs : reloc list;
  sym_addrs : (string * int) list;  (** resolved symbol addresses *)
}

let mk_inst opcode ops = { opcode; ops }

let iter_insts mf f =
  List.iter (fun b -> List.iter (f b) b.minsts) mf.mblocks
