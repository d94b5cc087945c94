(** Hook runtime: the bridge between MiniLLVM's target-independent code
    generator and the target-specific BackendC interface functions.

    A hook call interprets the function's AST against an environment
    whose enums come from the target's description files (via the
    catalog), exactly as a generated backend would run. pass@1 swaps one
    function's source for a generated one and reruns the pipeline.

    Arguments are plain data ({!arg}), and each hook set remembers how
    every call ended: a call repeating an earlier one's name and
    arguments returns the stored value, or raises the stored
    {!Hook_error} or [Interp.Fuel_exhausted], without interpreting the
    body again. This is exact because a body can reach only its
    arguments (immutable), the environment's enums and globals (written
    once, when the hook set is built), sibling hooks (same property)
    and its fuel (fresh on every call). The table lives as long as the
    hook set. One domain at a time uses a hook set. *)

exception Hook_error of string * string
(** [(hook name, message)]: the hook misbehaved at run time (unknown
    identifier, llvm_unreachable, wrong arity, non-termination...). *)

type t

val create :
  Vega_tdlang.Vfs.t ->
  target:string ->
  sources:(string * Vega_srclang.Ast.func) list ->
  t
(** [sources] maps interface-function names to their implementations;
    siblings are callable from hook bodies as free functions. Where a
    name is bound twice, the first binding is the one {!call} runs. *)

val target : t -> string

val catalog : t -> Vega_tdlang.Catalog.t
(** The catalog of the generic and the target's description files the
    hook set was built over. *)

val has : t -> string -> bool

type arg
(** A hook argument, built by the bridge constructors below. *)

val call : t -> string -> arg list -> Vega_srclang.Interp.value
(** @raise Hook_error on any failure.
    @raise Vega_srclang.Interp.Fuel_exhausted when the body runs out of
    fuel. *)

val call_int : t -> string -> arg list -> int
val call_bool : t -> string -> arg list -> bool

val enum_value : t -> string -> int
(** Resolved value of a qualified enum member (e.g. ["ISD::ADD"]),
    from the description-file catalogs. @raise Hook_error if absent. *)

val enum_value_opt : t -> string -> int option

(** {1 Bridge values} *)

val vint : int -> arg
val vbool : bool -> arg
val vstr : string -> arg

val mcinst : Vega_mc.Mcinst.inst -> arg
(** Read-only [MCInst]: [getOpcode], [getNumOperands], [getOperand]. *)

val mcfixup : kind:int -> arg
val mcvalue : variant:int -> arg
