let json_str s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_obj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_str k) v) fields)
  ^ "}"

type t = { json : bool; emit : string -> unit; mutable violations : int }

let stdout_emit s =
  print_string s;
  flush stdout

let create ?(emit = stdout_emit) ~json () = { json; emit; violations = 0 }
let violations k = k.violations
let line k s = k.emit (s ^ "\n")
let jline k fields = line k (json_obj fields)

(* one report line: a JSON record, or [prefix] and the text *)
let event k ev ~field ~prefix s =
  if k.json then jline k [ ("event", json_str ev); (field, json_str s) ]
  else line k (prefix ^ s)

let violation k fmt =
  Printf.ksprintf
    (fun s ->
      k.violations <- k.violations + 1;
      event k "violation" ~field:"message" ~prefix:"  VIOLATION: " s)
    fmt

let check k name cond = if not cond then violation k "%s" name
let scenario k name = event k "scenario" ~field:"name" ~prefix:"- " name
let info k fmt =
  Printf.ksprintf (event k "info" ~field:"message" ~prefix:"    ") fmt
