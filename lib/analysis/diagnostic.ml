(** Structured diagnostics of the BackendC static analyzer.

    Every diagnostic carries a stable rule ID (the catalog below), a
    severity, the function it was found in and, when the parser could
    attach one, a line/column span. Rule classes map onto the paper's
    Table 2 error taxonomy, which is what {!Vega_eval.Metrics} correlates
    against pass@1 outcomes.

    Rule catalog:
    - VA-P01 parse error: the function (or one generated statement) is not
      legal BackendC.
    - VA-P02 template shape: a generated statement does not instantiate
      the statement template of its slot, or names a slot position the
      template does not have.
    - VA-S01 unknown qualified name: a [Scoped] value (e.g.
      [ARM::fixup_arm_movt_hi16]) resolves to nothing in the target's
      description files.
    - VA-S02 unknown function: call to a free function that is neither an
      interface hook, a helper, nor an LLVM builtin.
    - VA-D01 undeclared variable: an identifier is read before any
      declaration or assignment introduces it.
    - VA-D02 uninitialized read: a declared-but-never-assigned local is
      read.
    - VA-D03 unreachable statement: code after [return]/[break]/
      [continue] (or an [if] whose branches both terminate).
    - VA-D04 missing return: a non-void function can fall off the end of
      its body.
    - VA-D05 silent fallthrough: the final [switch] arm neither breaks nor
      returns and there is no [default] body to fall into.
    - VA-I01 unknown method: method call that no MC-layer class provides.
    - VA-I02 method arity: known MC-layer method called with the wrong
      number of arguments.
    - VA-I03 hook signature: the function's parameter list does not match
      the interface spec it implements.

    Semantic rules (class [Sem], reported by {!Vega_absint}):
    - VS-V01 definite division/modulo by zero.
    - VS-V02 definitely out-of-range shift amount.
    - VS-I01 a local is read while uninitialized on every path reaching
      the read (path-sensitive upgrade of VA-D02).
    - VS-I02 a local may be read before initialization on some path.
    - VS-M01 differential summary: generated and reference functions
      produce structurally different outcomes on a shared path.
    - VS-M02 differential summary: the generated function falls off a
      path on which the reference terminates.
    - VS-R01 calling convention: a callee-saved register (or the frame
      pointer) does not hold its entry value at return.
    - VS-R02 stack discipline: the stack pointer is not restored.
    - VS-R03 the return address is clobbered at return.
    - VS-R04 emitted assembly the target's own assembler cannot parse. *)

type severity = Error | Warning

type cls = Parse | Symbol | Dataflow | Interface | Sem
(** The analyzer's four syntactic passes plus the semantic verifier;
    each diagnostic belongs to exactly one. *)

type t = {
  rule : string;  (** stable ID, e.g. ["VA-S01"] *)
  cls : cls;
  severity : severity;
  fname : string;  (** interface function the diagnostic is in *)
  span : Vega_srclang.Span.t option;
  msg : string;
}

let make ~rule ~cls ~severity ~fname ?span msg =
  { rule; cls; severity; fname; span; msg }

let cls_name = function
  | Parse -> "parse"
  | Symbol -> "symbol"
  | Dataflow -> "dataflow"
  | Interface -> "interface"
  | Sem -> "semantic"

let severity_name = function Error -> "error" | Warning -> "warning"

(** Paper Table 2 bucket a statically-detected defect lands in: unknown
    values are Err-V, control/dataflow defects are Err-CS, anything
    structurally deficient (unparsable, wrong shape, wrong interface) is
    Err-Def, and semantic disagreement with the reference is
    program-semantics territory, Err-PS. *)
let taxonomy d =
  match d.cls with
  | Symbol -> "Err-V"
  | Dataflow -> "Err-CS"
  | Parse | Interface -> "Err-Def"
  | Sem -> "Err-PS"

let is_error d = d.severity = Error

let to_string d =
  let where =
    match d.span with
    | Some sp -> Printf.sprintf "%s:" (Vega_srclang.Span.to_string sp)
    | None -> ""
  in
  Printf.sprintf "%s: %s%s %s [%s/%s]" d.fname where
    (match d.severity with Error -> " error:" | Warning -> " warning:")
    d.msg d.rule (taxonomy d)

(* span first (diagnostics without one sort last), then rule ID, then
   message: a total, deterministic order regardless of which pass or
   domain emitted what first *)
let compare_diag a b =
  let c =
    match (a.span, b.span) with
    | Some x, Some y -> Vega_srclang.Span.compare x y
    | Some _, None -> -1
    | None, Some _ -> 1
    | None, None -> 0
  in
  if c <> 0 then c
  else
    let c = compare a.rule b.rule in
    if c <> 0 then c else compare (a.fname, a.msg) (b.fname, b.msg)

let sort ds = List.stable_sort compare_diag ds

(** Sort and drop structural duplicates — two passes flagging the same
    defect at the same span collapse to one record, keeping lint/verify
    output and its JSON rendering deterministic. *)
let dedup ds =
  let rec uniq = function
    | a :: (b :: _ as rest) -> if a = b then uniq rest else a :: uniq rest
    | l -> l
  in
  uniq (sort ds)
