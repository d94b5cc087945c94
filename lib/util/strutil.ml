let starts_with ~prefix s = String.starts_with ~prefix s
let ends_with ~suffix s = String.ends_with ~suffix s

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  if n = 0 then true
  else if n > m then false
  else
    let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
    scan 0

let lowercase = String.lowercase_ascii
let uppercase = String.uppercase_ascii

let is_sep c = c = '_' || c = '.' || c = ':' || c = '-' || c = ' '
let is_upper c = c >= 'A' && c <= 'Z'
let is_lower c = c >= 'a' && c <= 'z'
let is_digit c = c >= '0' && c <= '9'

let camel_words s =
  let n = String.length s in
  let words = ref [] and buf = Buffer.create 8 in
  let flush () =
    if Buffer.length buf > 0 then begin
      words := Buffer.contents buf :: !words;
      Buffer.clear buf
    end
  in
  for i = 0 to n - 1 do
    let c = s.[i] in
    if is_sep c then flush ()
    else begin
      (* Break before an uppercase letter that starts a new word: either the
         previous char is lowercase/digit, or the next char is lowercase
         (end of an acronym, as in "PCRel" -> "PC" "Rel"). *)
      (if is_upper c && i > 0 then
         let prev = s.[i - 1] in
         if is_lower prev || is_digit prev then flush ()
         else if is_upper prev && i + 1 < n && is_lower s.[i + 1] then flush ());
      Buffer.add_char buf c
    end
  done;
  flush ();
  List.rev !words

let loose_match_min = 4

let loose_one_way a b =
  (* a (or one of its camel words) of length >= 4 embeds in b *)
  let la = lowercase a and lb = lowercase b in
  (String.length la >= loose_match_min && contains_sub ~sub:la lb)
  || List.exists
       (fun w ->
         let w = lowercase w in
         String.length w >= loose_match_min && contains_sub ~sub:w lb)
       (camel_words a)

let loose_match a b =
  if a = "" || b = "" then false else loose_one_way a b || loose_one_way b a

let common_token_score a b =
  let wa = camel_words (lowercase a) and wb = camel_words (lowercase b) in
  match (wa, wb) with
  | [], _ | _, [] -> 0.0
  | _ ->
      let shared = List.filter (fun w -> List.mem w wb) wa in
      2.0 *. float_of_int (List.length shared)
      /. float_of_int (List.length wa + List.length wb)
