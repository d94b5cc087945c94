let src = Logs.Src.create "vega.tdlang" ~doc:"Target-description catalog"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  classes : (string, string) Hashtbl.t;  (* name -> path *)
  globals : (string, string) Hashtbl.t;
  enums : (string, string) Hashtbl.t;  (* enum name -> path *)
  enum_members_by_enum : (string, string list) Hashtbl.t;  (* enum -> members *)
  member_enum : (string, string * string) Hashtbl.t;  (* member -> enum, path *)
  word_index : (string, string list) Hashtbl.t;  (* word -> paths (rev) *)
  assigns : (string * string * string) list ref;  (* field, value, path *)
  recs : (string * Td_ast.record) list ref;
  enum_decls : (string * Td_ast.enum_decl) list ref;
  resolved : (string, int) Hashtbl.t;  (* "Scope::member" -> value *)
  mutable next_ordinal : int;  (* fallback numbering across enums *)
}

let empty () =
  {
    classes = Hashtbl.create 64;
    globals = Hashtbl.create 64;
    enums = Hashtbl.create 64;
    enum_members_by_enum = Hashtbl.create 64;
    member_enum = Hashtbl.create 256;
    word_index = Hashtbl.create 1024;
    assigns = ref [];
    recs = ref [];
    enum_decls = ref [];
    resolved = Hashtbl.create 256;
    next_ordinal = 1000;
  }

let index_words t path content =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun w ->
      if not (Hashtbl.mem seen w) then begin
        Hashtbl.add seen w ();
        let prev = Option.value ~default:[] (Hashtbl.find_opt t.word_index w) in
        Hashtbl.replace t.word_index w (path :: prev)
      end)
    (Td_lex.words content)

(* Resolve member initializers to ints. Sequential within an enum;
   references look up previously resolved members (qualified first). *)
let resolve_enum t path (e : Td_ast.enum_decl) =
  t.enum_decls := (path, e) :: !(t.enum_decls);
  let scope_prefix =
    match e.enum_scope with Some s -> s ^ "::" | None -> e.enum_name ^ "::"
  in
  Hashtbl.replace t.enums e.enum_name path;
  Hashtbl.replace t.enum_members_by_enum e.enum_name (List.map fst e.members);
  let counter = ref None in
  List.iter
    (fun (name, init) ->
      let value =
        match init with
        | Td_ast.Init_int n -> n
        | Td_ast.Init_ref r -> (
            match Hashtbl.find_opt t.resolved r with
            | Some v -> v
            | None -> (
                match Hashtbl.find_opt t.resolved (scope_prefix ^ r) with
                | Some v -> v
                | None ->
                    t.next_ordinal <- t.next_ordinal + 100;
                    t.next_ordinal))
        | Td_ast.Init_none -> (
            match !counter with
            | Some prev -> prev + 1
            | None ->
                t.next_ordinal <- t.next_ordinal + 100;
                t.next_ordinal)
      in
      counter := Some value;
      Hashtbl.replace t.resolved (scope_prefix ^ name) value;
      if not (Hashtbl.mem t.resolved name) then Hashtbl.replace t.resolved name value;
      if not (Hashtbl.mem t.member_enum name) then
        Hashtbl.add t.member_enum name (e.enum_name, path))
    e.members

let ingest_h t path content =
  match H_parser.parse content with
  | decls ->
      List.iter
        (fun d ->
          match d with
          | Td_ast.Class_decl (name, enums) ->
              if not (Hashtbl.mem t.classes name) then Hashtbl.add t.classes name path;
              List.iter (resolve_enum t path) enums
          | Td_ast.Enum_top e -> resolve_enum t path e
          | Td_ast.Global_decl (_, name) ->
              if not (Hashtbl.mem t.globals name) then Hashtbl.add t.globals name path)
        decls
  | exception H_parser.Error msg -> Log.warn (fun m -> m "%s: %s" path msg)

let ingest_td t path content =
  match (Td_parser.parse content, Td_parser.classes content) with
  | records, classes ->
      List.iter
        (fun (cname, fields) ->
          if not (Hashtbl.mem t.classes cname) then Hashtbl.add t.classes cname path;
          List.iter
            (fun f -> if not (Hashtbl.mem t.globals f) then Hashtbl.add t.globals f path)
            fields)
        classes;
      List.iter
        (fun (r : Td_ast.record) ->
          t.recs := (path, r) :: !(t.recs);
          List.iter
            (fun (field, v) ->
              match v with
              | Td_ast.Vstr s -> t.assigns := (field, s, path) :: !(t.assigns)
              | Td_ast.Vint n ->
                  t.assigns := (field, string_of_int n, path) :: !(t.assigns)
              | Td_ast.Vid _ -> ()
              | Td_ast.Vlist vs ->
                  List.iter
                    (function
                      | Td_ast.Vstr s -> t.assigns := (field, s, path) :: !(t.assigns)
                      | Td_ast.Vint n ->
                          t.assigns :=
                            (field, string_of_int n, path) :: !(t.assigns)
                      | Td_ast.Vid _ | Td_ast.Vlist _ -> ())
                    vs)
            r.fields)
        records
  | exception Td_parser.Error msg -> Log.warn (fun m -> m "%s: %s" path msg)

(* .def relocations form the pseudo-enum "ELFReloc"; qualified members
   keep the "ELF::" prefix used by the source code. *)
let ingest_def t path content =
  match Def_parser.parse content with
  | relocs ->
      Hashtbl.replace t.enums "ELFReloc" path;
      let names = List.map (fun (r : Td_ast.reloc) -> r.reloc_name) relocs in
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt t.enum_members_by_enum "ELFReloc")
      in
      Hashtbl.replace t.enum_members_by_enum "ELFReloc" (prev @ names);
      List.iter
        (fun (r : Td_ast.reloc) ->
          Hashtbl.replace t.resolved ("ELF::" ^ r.reloc_name) r.reloc_value;
          if not (Hashtbl.mem t.resolved r.reloc_name) then
            Hashtbl.replace t.resolved r.reloc_name r.reloc_value;
          if not (Hashtbl.mem t.member_enum r.reloc_name) then
            Hashtbl.add t.member_enum r.reloc_name ("ELFReloc", path))
        relocs
  | exception Def_parser.Error msg -> Log.warn (fun m -> m "%s: %s" path msg)

let build vfs dirs =
  let t = empty () in
  let files = Vfs.files_under_dirs vfs dirs in
  List.iter
    (fun (path, content) ->
      index_words t path content;
      if Filename.check_suffix path ".td" then ingest_td t path content
      else if Filename.check_suffix path ".h" then ingest_h t path content
      else if Filename.check_suffix path ".def" then ingest_def t path content)
    files;
  t

let is_prop t name =
  Hashtbl.mem t.classes name || Hashtbl.mem t.enums name || Hashtbl.mem t.globals name

let find_word t w =
  Option.value ~default:[] (Hashtbl.find_opt t.word_index w) |> List.sort compare

let assignments t = List.rev !(t.assigns)

let assignments_of t field =
  List.filter_map
    (fun (f, v, p) -> if f = field then Some (v, p) else None)
    (assignments t)

let enum_of_member t m = Hashtbl.find_opt t.member_enum m

let members_of_enum t e =
  Option.value ~default:[] (Hashtbl.find_opt t.enum_members_by_enum e)

let enum_path t e = Hashtbl.find_opt t.enums e

let resolved_members t =
  Hashtbl.fold
    (fun k v acc -> if String.contains k ':' then (k, v) :: acc else acc)
    t.resolved []
  |> List.sort compare

let member_value t m = Hashtbl.find_opt t.resolved m
let records t = List.rev !(t.recs)
let enum_decls t = List.rev !(t.enum_decls)

let record_field t ~record ~field =
  List.find_map
    (fun (_, (r : Td_ast.record)) ->
      if r.rec_name = record then List.assoc_opt field r.fields else None)
    (records t)

let global_path t name =
  match Hashtbl.find_opt t.globals name with
  | Some p -> Some p
  | None -> (
      match Hashtbl.find_opt t.classes name with
      | Some p -> Some p
      | None -> Hashtbl.find_opt t.enums name)
