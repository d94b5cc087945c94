exception Error of string

type st = { toks : Td_lex.tok array; mutable pos : int }

let fail st msg =
  let near =
    let lo = max 0 (st.pos - 2) and hi = min (Array.length st.toks) (st.pos + 3) in
    String.concat " "
      (Array.to_list (Array.map Td_lex.to_string (Array.sub st.toks lo (hi - lo))))
  in
  raise (Error (Printf.sprintf "%s (near: %s)" msg near))

let peek st = if st.pos < Array.length st.toks then Some st.toks.(st.pos) else None
let advance st = st.pos <- st.pos + 1

let expect_punct st p =
  match peek st with
  | Some (Td_lex.Punct q) when q = p -> advance st
  | _ -> fail st (Printf.sprintf "expected %S" p)

let word st =
  match peek st with
  | Some (Td_lex.Word w) ->
      advance st;
      w
  | _ -> fail st "expected identifier"

let rec parse_value st : Td_ast.value =
  match peek st with
  | Some (Td_lex.Str s) ->
      advance st;
      Td_ast.Vstr s
  | Some (Td_lex.Num n) ->
      advance st;
      Td_ast.Vint n
  | Some (Td_lex.Punct "-") ->
      advance st;
      (match peek st with
      | Some (Td_lex.Num n) ->
          advance st;
          Td_ast.Vint (-n)
      | _ -> fail st "expected number after '-'")
  | Some (Td_lex.Word w) ->
      advance st;
      Td_ast.Vid w
  | Some (Td_lex.Punct "[") ->
      advance st;
      let rec elems acc =
        match peek st with
        | Some (Td_lex.Punct "]") ->
            advance st;
            List.rev acc
        | _ ->
            let v = parse_value st in
            (match peek st with
            | Some (Td_lex.Punct ",") -> advance st
            | _ -> ());
            elems (v :: acc)
      in
      Td_ast.Vlist (elems [])
  | _ -> fail st "expected value"

(* class bodies declare typed prototype fields: [string Name = "";]
   These names are the "global variables" of the paper's PropList. *)
let parse_class_fields st =
  expect_punct st "{";
  let rec loop acc =
    match peek st with
    | Some (Td_lex.Punct "}") ->
        advance st;
        List.rev acc
    | Some (Td_lex.Word ("string" | "int" | "bit" | "bits" | "code" | "list")) ->
        advance st;
        (* optional generic suffix like list<string> or bits<4> *)
        (if
           match peek st with Some (Td_lex.Punct "<") -> true | _ -> false
         then begin
           advance st;
           let rec close () =
             match peek st with
             | Some (Td_lex.Punct ">") -> advance st
             | Some _ ->
                 advance st;
                 close ()
             | None -> fail st "unterminated generic"
           in
           close ()
         end);
        let name = word st in
        let _ =
          match peek st with
          | Some (Td_lex.Punct "=") ->
              advance st;
              ignore (parse_value st)
          | _ -> ()
        in
        expect_punct st ";";
        loop (name :: acc)
    | _ -> fail st "expected field declaration or '}'"
  in
  loop []

let parse_fields st =
  expect_punct st "{";
  let rec loop acc =
    match peek st with
    | Some (Td_lex.Punct "}") ->
        advance st;
        List.rev acc
    | Some (Td_lex.Word "let") ->
        advance st;
        let name = word st in
        expect_punct st "=";
        let v = parse_value st in
        expect_punct st ";";
        loop ((name, v) :: acc)
    | _ -> fail st "expected 'let' or '}'"
  in
  loop []

let parse_all src =
  let st = { toks = Array.of_list (Td_lex.tokenize src); pos = 0 } in
  let records = ref [] and classes = ref [] in
  let rec loop () =
    match peek st with
    | None -> ()
    | Some (Td_lex.Word "class") ->
        advance st;
        let name = word st in
        let fields =
          match peek st with
          | Some (Td_lex.Punct "{") -> parse_class_fields st
          | _ -> []
        in
        classes := (name, fields) :: !classes;
        (match peek st with
        | Some (Td_lex.Punct ";") -> advance st
        | _ -> ());
        loop ()
    | Some (Td_lex.Word "def") ->
        advance st;
        let rec_name = word st in
        expect_punct st ":";
        let rec_class = word st in
        let fields = parse_fields st in
        records := { Td_ast.rec_name; rec_class; fields } :: !records;
        loop ()
    | Some t -> fail st (Printf.sprintf "unexpected %S at top level" (Td_lex.to_string t))
  in
  loop ();
  (List.rev !records, List.rev !classes)

let parse src = fst (parse_all src)
let classes src = snd (parse_all src)
