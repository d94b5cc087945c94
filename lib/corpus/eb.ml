(** Expression/statement builders for rendering reference BackendC
    implementations. Thin sugar over {!Vega_srclang.Ast}. *)

module Ast = Vega_srclang.Ast

let i n = Ast.Int n
let s str = Ast.Str str
let b v = Ast.Bool v
let id name = Ast.Id name
let sc parts = Ast.Scoped parts

(** [tgt p member] — the qualified name [<T>::member]. *)
let tgt (p : Vega_target.Profile.t) member = Ast.Scoped [ p.name; member ]

let elf member = Ast.Scoped [ "ELF"; member ]
let call f args = Ast.Call (f, args)
let meth recv m args = Ast.Method (recv, m, args)
let ( === ) a b = Ast.Binop (Ast.Eq, a, b)
let ( <>. ) a b = Ast.Binop (Ast.Ne, a, b)
let ( <. ) a b = Ast.Binop (Ast.Lt, a, b)
let ( >. ) a b = Ast.Binop (Ast.Gt, a, b)
let ( <=. ) a b = Ast.Binop (Ast.Le, a, b)
let ( >=. ) a b = Ast.Binop (Ast.Ge, a, b)
let ( &&. ) a b = Ast.Binop (Ast.Land, a, b)
let ( ||. ) a b = Ast.Binop (Ast.Lor, a, b)
let ( +. ) a b = Ast.Binop (Ast.Add, a, b)
let ( -. ) a b = Ast.Binop (Ast.Sub, a, b)
let ( *. ) a b = Ast.Binop (Ast.Mul, a, b)
let ( >>. ) a b = Ast.Binop (Ast.Shr, a, b)
let ( <<. ) a b = Ast.Binop (Ast.Shl, a, b)
let ( &. ) a b = Ast.Binop (Ast.Band, a, b)
let ( |. ) a b = Ast.Binop (Ast.Bor, a, b)
let not_ a = Ast.Unop (Ast.Not, a)
let neg a = Ast.Unop (Ast.Neg, a)

let decl ty name init = Ast.Decl (ty, name, Some init)
let assign lhs rhs = Ast.Assign (Ast.Set, lhs, rhs)
let expr e = Ast.Expr e
let ret e = Ast.Return (Some e)
let if_ c t = Ast.If (c, t, [])
let ifelse c t e = Ast.If (c, t, e)
let switch scrut arms default = Ast.Switch (scrut, arms, default)
let arm labels body = { Ast.labels; body }
let break_ = Ast.Break

let unreachable msg = expr (call "llvm_unreachable" [ s msg ])
