(** Source positions for BackendC tokens and statements.

    Lines and columns are 1-based, matching compiler convention. A span
    marks the first token of a construct; the analyzer ({!Vega_analysis})
    anchors its diagnostics on these. *)

type t = { line : int; col : int }

let make ~line ~col = { line; col }
let dummy = { line = 0; col = 0 }
let is_dummy s = s.line = 0
let to_string s = Printf.sprintf "%d:%d" s.line s.col
let compare (a : t) (b : t) = compare (a.line, a.col) (b.line, b.col)
