(** Target conventions assembled from hooks and description files: the
    register convention comes from REG/SEL hooks (so a generated
    getArgRegister really changes calling-convention codegen), while
    syntax facts (register prefix, immediate marker, endianness) come
    from the target's .td records. *)

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

val make : Hooks.t -> t
(** Reads the instruction table and the syntax records from the hook
    set's own catalog. @raise Hooks.Hook_error when a convention hook
    misbehaves. *)

val reg_name : t -> int -> string
val frame_offset : t -> int -> int
(** Byte offset of frame index [fi] relative to the frame pointer, via the
    getFrameIndexOffset hook. *)
