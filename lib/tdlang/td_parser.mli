(** Parser for the TableGen-like [.td] record format.

    Grammar subset:
    {v
    class Name { ... ignored prototype fields ... }
    def Name : Parent {
      let Field = "string" | 123 | Identifier | [v, v, ...];
    }
    v} *)

exception Error of string

val parse : string -> Td_ast.record list
(** Records in file order; [class] prototypes contribute no records but
    their names are returned by {!classes}. @raise Error. *)

val classes : string -> (string * string list) list
(** [class] declarations with their prototype field names; field names are
    the "global variables" (e.g. [Name], [OperandType]) that feed the
    paper's PropList. *)
