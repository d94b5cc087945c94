let n_score_buckets = 21

let score_token s =
  let s = Float.min 1.0 (Float.max 0.0 s) in
  Printf.sprintf "<cs_%d>" (int_of_float (Float.round (s *. 20.0)))

let score_of_token tok =
  if String.length tok > 5 && String.sub tok 0 4 = "<cs_" then
    let inner = String.sub tok 4 (String.length tok - 5) in
    Option.map (fun n -> float_of_int n /. 20.0) (int_of_string_opt inner)
  else None

let copy_token k = Printf.sprintf "<COPY_%d>" k

let copy_of_token tok =
  if String.length tok > 7 && String.sub tok 0 6 = "<COPY_" then
    int_of_string_opt (String.sub tok 6 (String.length tok - 7))
  else None

let index_token = "<IDX>"

let max_copy = 12
let max_sv = 8

let specials =
  [ "<PAD>"; "<CLS>"; "<E2D>"; "<SEP>"; "<EOS>"; "<UNK>"; index_token ]
  @ List.init n_score_buckets (fun i -> Printf.sprintf "<cs_%d>" i)
  @ List.init max_copy copy_token
  @ List.init max_sv (fun i -> Printf.sprintf "<SV%d>" i)

let e2d = 2
let eos = 4
let unk = 5

type t = { tokens : string array; ids : (string, int) Hashtbl.t }

let build seqs =
  let ids = Hashtbl.create 1024 in
  let order = ref [] in
  let add tok =
    if not (Hashtbl.mem ids tok) then begin
      Hashtbl.add ids tok (Hashtbl.length ids);
      order := tok :: !order
    end
  in
  List.iter add specials;
  List.iter (fun seq -> List.iter add seq) seqs;
  { tokens = Array.of_list (List.rev !order); ids }

let size t = Array.length t.tokens
let id t tok = match Hashtbl.find_opt t.ids tok with Some i -> i | None -> unk
let token t i = if i >= 0 && i < Array.length t.tokens then t.tokens.(i) else "<UNK>"
let encode t toks = Array.of_list (List.map (id t) toks)
let decode t ids = Array.to_list (Array.map (token t) ids)
