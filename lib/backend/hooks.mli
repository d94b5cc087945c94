(** Hook runtime: the bridge between MiniLLVM's target-independent code
    generator and the target-specific BackendC interface functions.

    Every hook call interprets the function's AST against an environment
    whose enums come from the target's description files (via the
    catalog), exactly as a generated backend would run. pass@1 swaps one
    function's source for a generated one and reruns the pipeline. *)

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
val has : t -> string -> bool

val call : t -> string -> Vega_srclang.Interp.value list -> Vega_srclang.Interp.value
(** @raise Hook_error on any failure. *)

val call_int : t -> string -> Vega_srclang.Interp.value list -> int
val call_bool : t -> string -> Vega_srclang.Interp.value list -> bool

val enum_value : t -> string -> int
(** Resolved value of a qualified enum member (e.g. ["ISD::ADD"]),
    from the description-file catalogs. @raise Hook_error if absent. *)

val enum_value_opt : t -> string -> int option

(** {1 Bridge values} *)

val vint : int -> Vega_srclang.Interp.value
val vbool : bool -> Vega_srclang.Interp.value
val vstr : string -> Vega_srclang.Interp.value
val mcoperand : Vega_mc.Mcinst.operand -> Vega_srclang.Interp.value
val mcinst : Vega_mc.Mcinst.inst -> Vega_srclang.Interp.value
val mcfixup : kind:int -> Vega_srclang.Interp.value
val mcvalue : variant:int -> Vega_srclang.Interp.value
