exception Error of string

let fail lineno msg = raise (Error (Printf.sprintf "line %d: %s" lineno msg))

let strip = String.trim

let reg_of lineno s =
  let s = strip s in
  if String.length s > 2 && s.[0] = '%' && s.[1] = 'r' then
    match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
    | Some r -> r
    | None -> fail lineno (Printf.sprintf "bad register %S" s)
  else fail lineno (Printf.sprintf "bad register %S" s)

let value_of lineno s =
  let s = strip s in
  if s = "" then fail lineno "empty operand"
  else if s.[0] = '%' then Vir.Reg (reg_of lineno s)
  else
    match int_of_string_opt s with
    | Some n -> Vir.Imm n
    | None -> fail lineno (Printf.sprintf "bad operand %S" s)

let split_args s =
  String.split_on_char ',' s |> List.map strip |> List.filter (fun x -> x <> "")

let binop_of = function
  | "add" -> Some Vir.Add
  | "sub" -> Some Vir.Sub
  | "mul" -> Some Vir.Mul
  | "div" -> Some Vir.Div
  | "rem" -> Some Vir.Rem
  | "and" -> Some Vir.And
  | "or" -> Some Vir.Or
  | "xor" -> Some Vir.Xor
  | "shl" -> Some Vir.Shl
  | "shr" -> Some Vir.Shr
  | "slt" -> Some Vir.Slt
  | _ -> None

let cond_of = function
  | "breq" -> Some Vir.Eq
  | "brne" -> Some Vir.Ne
  | "brlt" -> Some Vir.Lt
  | "brge" -> Some Vir.Ge
  | _ -> None

(* "word rest" split *)
let word s =
  match String.index_opt s ' ' with
  | Some i -> (String.sub s 0 i, strip (String.sub s (i + 1) (String.length s - i - 1)))
  | None -> (s, "")

let parse_call lineno rest =
  (* @f(a, b, c) *)
  match String.index_opt rest '(' with
  | Some i when String.length rest > 0 && rest.[0] = '@' ->
      let fname = String.sub rest 1 (i - 1) in
      let close = String.rindex rest ')' in
      let args = split_args (String.sub rest (i + 1) (close - i - 1)) in
      (fname, List.map (value_of lineno) args)
  | _ -> fail lineno (Printf.sprintf "bad call %S" rest)

let parse_rhs lineno dst rhs =
  let op, rest = word rhs in
  match binop_of op with
  | Some b -> (
      match split_args rest with
      | [ a; c ] -> Vir.Bin (b, dst, value_of lineno a, value_of lineno c)
      | _ -> fail lineno "binary op needs two operands")
  | None -> (
      match op with
      | "mov" -> Vir.Mov (dst, value_of lineno rest)
      | "addr" ->
          if String.length rest > 0 && rest.[0] = '@' then
            Vir.Addr (dst, String.sub rest 1 (String.length rest - 1))
          else fail lineno "addr needs @global"
      | "load" -> (
          match split_args rest with
          | [ base; off ] -> (
              match int_of_string_opt off with
              | Some off -> Vir.Load (dst, reg_of lineno base, off)
              | None -> fail lineno "bad load offset")
          | _ -> fail lineno "load needs base, offset")
      | "call" ->
          let f, args = parse_call lineno rest in
          Vir.Call (Some dst, f, args)
      | _ -> fail lineno (Printf.sprintf "unknown instruction %S" op))

type pstate = {
  mutable globals : Vir.global list;
  mutable funcs : Vir.func list;
  (* current function *)
  mutable cur_name : string option;
  mutable cur_params : int list;
  mutable blocks : Vir.block list;
  mutable cur_label : string option;
  mutable body : Vir.instr list;
}

let parse src =
  let st =
    {
      globals = [];
      funcs = [];
      cur_name = None;
      cur_params = [];
      blocks = [];
      cur_label = None;
      body = [];
    }
  in
  let finish_block lineno term =
    match st.cur_label with
    | Some label ->
        st.blocks <- { Vir.label; body = List.rev st.body; term } :: st.blocks;
        st.cur_label <- None;
        st.body <- []
    | None -> fail lineno "terminator outside a block"
  in
  let finish_func lineno =
    match st.cur_name with
    | Some fname ->
        if st.cur_label <> None then fail lineno "block missing terminator";
        st.funcs <-
          { Vir.fname; params = st.cur_params; blocks = List.rev st.blocks }
          :: st.funcs;
        st.cur_name <- None;
        st.blocks <- []
    | None -> fail lineno "'}' outside a function"
  in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line =
        match String.index_opt raw ';' with
        | Some i -> strip (String.sub raw 0 i)
        | None -> strip raw
      in
      if line = "" then ()
      else if String.length line > 7 && String.sub line 0 7 = "global " then begin
        (* global @name[size] = {init} *)
        let rest = strip (String.sub line 7 (String.length line - 7)) in
        match (String.index_opt rest '[', String.index_opt rest ']') with
        | Some i, Some j when rest.[0] = '@' ->
            let gname = String.sub rest 1 (i - 1) in
            let size =
              match int_of_string_opt (String.sub rest (i + 1) (j - i - 1)) with
              | Some s -> s
              | None -> fail lineno "bad global size"
            in
            let init =
              match (String.index_opt rest '{', String.index_opt rest '}') with
              | Some a, Some b ->
                  split_args (String.sub rest (a + 1) (b - a - 1))
                  |> List.map (fun s ->
                         match int_of_string_opt s with
                         | Some n -> n
                         | None -> fail lineno "bad global initializer")
              | _ -> []
            in
            st.globals <- { Vir.gname; size; init } :: st.globals
        | _ -> fail lineno "bad global declaration"
      end
      else if String.length line > 5 && String.sub line 0 5 = "func " then begin
        match String.index_opt line '(' with
        | Some i when line.[5] = '@' ->
            let fname = String.sub line 6 (i - 6) in
            let close = String.rindex line ')' in
            let params =
              split_args (String.sub line (i + 1) (close - i - 1))
              |> List.map (reg_of lineno)
            in
            st.cur_name <- Some fname;
            st.cur_params <- params
        | _ -> fail lineno "bad function header"
      end
      else if line = "}" then finish_func lineno
      else if String.length line > 1 && line.[String.length line - 1] = ':' then begin
        if st.cur_label <> None then fail lineno "previous block not terminated";
        st.cur_label <- Some (String.sub line 0 (String.length line - 1))
      end
      else begin
        let op, rest = word line in
        match cond_of op with
        | Some c -> (
            match split_args rest with
            | [ a; b; t; f ] ->
                finish_block lineno
                  (Vir.Brcond (c, value_of lineno a, value_of lineno b, t, f))
            | _ -> fail lineno "conditional branch needs 4 operands")
        | None -> (
            match op with
            | "br" -> finish_block lineno (Vir.Br rest)
            | "ret" ->
                finish_block lineno
                  (if rest = "" then Vir.Ret None
                   else Vir.Ret (Some (value_of lineno rest)))
            | "print" -> st.body <- Vir.Print (value_of lineno rest) :: st.body
            | "store" -> (
                match split_args rest with
                | [ v; base; off ] -> (
                    match int_of_string_opt off with
                    | Some off ->
                        st.body <-
                          Vir.Store (value_of lineno v, reg_of lineno base, off)
                          :: st.body
                    | None -> fail lineno "bad store offset")
                | _ -> fail lineno "store needs value, base, offset")
            | "call" ->
                let f, args = parse_call lineno rest in
                st.body <- Vir.Call (None, f, args) :: st.body
            | _ -> (
                (* %rN = rhs *)
                match String.index_opt line '=' with
                | Some i ->
                    let dst = reg_of lineno (String.sub line 0 i) in
                    let rhs = strip (String.sub line (i + 1) (String.length line - i - 1)) in
                    st.body <- parse_rhs lineno dst rhs :: st.body
                | None -> fail lineno (Printf.sprintf "cannot parse %S" line)))
      end)
    (String.split_on_char '\n' src);
  if st.cur_name <> None then raise (Error "unterminated function");
  { Vir.funcs = List.rev st.funcs; globals = List.rev st.globals }
