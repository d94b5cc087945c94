module Ast = Vega_srclang.Ast
module Lines = Vega_srclang.Lines

type cline = { kind : string; tokens : string list }
type citem = Single of cline | Repeat of cline list list

(* ------------------------------------------------------------------ *)
(* Inlining                                                            *)

let inline_helpers (f : Ast.func) helpers =
  match f.body with
  | [ Ast.Return (Some (Ast.Call (callee, args))) ] -> (
      match List.find_opt (fun (h : Ast.func) -> h.name = callee) helpers with
      | Some h
        when List.length h.params = List.length args
             && List.for_all2
                  (fun (p : Ast.param) a -> a = Ast.Id p.pname)
                  h.params args ->
          { f with body = h.body }
      | Some _ | None -> f)
  | _ -> f

(* ------------------------------------------------------------------ *)
(* if/else-if chain -> switch normalization                            *)

(* Collect a chain [if (v == c1) b1 else if (v == c2) b2 ... else bd]
   over one scrutinee variable [v] with constant-like comparands. *)
let rec collect_chain scrut acc (s : Ast.stmt) =
  match s with
  | Ast.If (Ast.Binop (Ast.Eq, Ast.Id v, rhs), then_, else_) -> (
      let const_like =
        match rhs with
        | Ast.Int _ | Ast.Scoped _ | Ast.Id _ | Ast.Str _ -> true
        | _ -> false
      in
      let same_scrut = match scrut with None -> true | Some v' -> v = v' in
      if not (const_like && same_scrut) then None
      else
        let acc = (rhs, then_) :: acc in
        match else_ with
        | [] -> Some (v, List.rev acc, [])
        | [ (Ast.If _ as nested) ] -> (
            match collect_chain (Some v) acc nested with
            | Some r -> Some r
            | None -> Some (v, List.rev acc, else_))
        | _ -> Some (v, List.rev acc, else_))
  | Ast.If _ | Ast.Decl _ | Ast.Assign _ | Ast.Expr _ | Ast.Switch _
  | Ast.Return _ | Ast.Break | Ast.Continue | Ast.While _ | Ast.For _ ->
      None

(* A switch arm body must not fall through silently; our chains end in
   return/break in practice, but guard by appending a break when needed. *)
let arm_body body =
  match List.rev body with
  | (Ast.Return _ | Ast.Break) :: _ -> body
  | _ -> body @ [ Ast.Break ]

let rec norm_stmt (s : Ast.stmt) : Ast.stmt =
  match s with
  | Ast.If (cond, then_, else_) -> (
      match collect_chain None [] s with
      | Some (v, arms, default) when List.length arms >= 2 ->
          Ast.Switch
            ( Ast.Id v,
              List.map
                (fun (rhs, body) ->
                  { Ast.labels = [ rhs ]; body = arm_body (norm_list body) })
                arms,
              norm_list default )
      | _ -> Ast.If (cond, norm_list then_, norm_list else_))
  | Ast.Switch (scrut, arms, default) ->
      Ast.Switch
        ( scrut,
          List.map
            (fun (a : Ast.arm) -> { a with Ast.body = norm_list a.body })
            arms,
          norm_list default )
  | Ast.While (c, body) -> Ast.While (c, norm_list body)
  | Ast.For (i, c, st, body) -> Ast.For (i, c, st, norm_list body)
  | Ast.Decl _ | Ast.Assign _ | Ast.Expr _ | Ast.Return _ | Ast.Break
  | Ast.Continue ->
      s

and norm_list body = List.map norm_stmt body

let normalize_ifchains (f : Ast.func) = { f with Ast.body = norm_list f.body }

(* ------------------------------------------------------------------ *)
(* Flattening and repeat collapsing                                    *)

let lines_of_func f =
  List.map
    (fun (l : Lines.t) ->
      { kind = Lines.kind_name l.kind; tokens = Lines.tokens_of l })
    (Lines.of_func f)

let similar_lines a b =
  a.kind = b.kind
  &&
  let ta = Array.of_list a.tokens and tb = Array.of_list b.tokens in
  Vega_util.Lcs.similarity ~eq:String.equal ta tb >= 0.55

let units_similar u v =
  List.length u = List.length v && List.for_all2 similar_lines u v

(* Closing braces are structural, not repeatable content: a unit made only
   of them must never collapse (it would unbalance generated functions). *)
let collapsible unit = List.exists (fun l -> l.kind <> "close") unit

(* Greedy: at each position try periods 1..4 (smallest first, so that a
   run of case+return pairs collapses with period 2, not 4) and take the
   longest run of repetitions of a similar unit. *)
let collapse lines =
  let arr = Array.of_list lines in
  let n = Array.length arr in
  let sub i len = Array.to_list (Array.sub arr i len) in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let best = ref None in
    List.iter
      (fun p ->
        if !best = None && !i + (2 * p) <= n then begin
          let unit0 = sub !i p in
          if collapsible unit0 then begin
            let count = ref 1 in
            while
              !i + ((!count + 1) * p) <= n
              && units_similar unit0 (sub (!i + (!count * p)) p)
            do
              incr count
            done;
            if !count >= 2 then best := Some (p, !count)
          end
        end)
      [ 1; 2; 3; 4 ];
    (match !best with
    | Some (p, count) ->
        let instances = List.init count (fun k -> sub (!i + (k * p)) p) in
        out := Repeat instances :: !out;
        i := !i + (count * p)
    | None ->
        out := Single arr.(!i) :: !out;
        incr i)
  done;
  List.rev !out

let run f ~helpers =
  let f = inline_helpers f helpers in
  let f = normalize_ifchains f in
  collapse (lines_of_func f)

let item_head = function
  | Single l -> l
  | Repeat (inst :: _) -> (
      match inst with l :: _ -> l | [] -> invalid_arg "item_head: empty unit")
  | Repeat [] -> invalid_arg "item_head: empty repeat"
