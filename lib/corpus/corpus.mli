(** The backend corpus: for every target, the rendered description-file
    tree plus the reference BackendC implementation of every interface
    function — the stand-in for the paper's 101 GitHub LLVM backends.

    The reference implementations double as the behavioural ground truth
    of pass@1: MiniLLVM executes them as hooks, and a generated function
    is accurate iff swapping it in leaves every regression artifact and
    simulated output unchanged. *)

type impl = {
  target : string;
  fn : Vega_srclang.Ast.func;
  helpers : Vega_srclang.Ast.func list;
      (** local (non-interface) callees, e.g. ARM's GetRelocTypeInner;
          pre-processing inlines them (Sec. 3.1) *)
}

type group = { spec : Spec.t; impls : impl list }

type t = {
  vfs : Vega_tdlang.Vfs.t;
  groups : group list;  (** one per interface function, training targets *)
}

val all_specs : Spec.t list
(** Every interface-function spec across the seven modules. *)

val find_spec : string -> Spec.t option

val reference :
  Spec.t -> Vega_target.Profile.t ->
  (Vega_srclang.Ast.func * Vega_srclang.Ast.func list) option
(** Reference implementation as stored in the corpus (ARM's getRelocType
    is a wrapper plus a local helper); [None] when the target does not
    implement the interface. *)

val reference_inlined :
  Spec.t -> Vega_target.Profile.t -> Vega_srclang.Ast.func option
(** The fully-inlined reference — what pass@1 compares against. *)

val reference_sources :
  Vega_target.Profile.t -> (string * Vega_srclang.Ast.func) list
(** Every interface function's inlined reference for the target, by
    name, in spec order: the hook sources of its reference backend, the
    base compiler that pass@1 substitutes a generated function into. *)

val build : ?targets:Vega_target.Profile.t list -> unit -> t
(** Render description files for every registered target and the
    reference implementations for the given (default: training)
    targets. *)

val group_statements : group -> int
val stats : t -> int * int * int
(** (function groups, functions, statement lines). *)
