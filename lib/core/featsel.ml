module Catalog = Vega_tdlang.Catalog
module Strutil = Vega_util.Strutil

type prop_kind = Independent | Dependent

type source =
  | Enum_source of string  (** target-side enum (Fixups, Opcodes, ...) *)
  | Llvm_enum_source of string
      (** LLVM-provided enum (ISD::NodeType, DecodeStatus, ...): values
          are shared by every target *)
  | Assign_source of string
  | Decl_presence

type prop = {
  pname : string;
  kind : prop_kind;
  source : source;
  identified_site : string option;
}

type pattern_item =
  | Plit of string
  | Pprop of string
  | Pcompose of { pre : string; prop : string; post : string }
      (** the word is [pre ^ value ^ post], e.g. ARMELFObjectWriter =
          "" ^ Name ^ "ELFObjectWriter" *)
  | Pindex

type target_view = {
  tv_target : string;
  independent : (string * bool) list;
  candidates : (string * (string * string) list) list;
}

type t = {
  props : prop list;
  slot_patterns : ((int * int * int) * pattern_item list) list;
  views : target_view list;
}

type context = {
  vfs : Vega_tdlang.Vfs.t;
  llvm_cat : Catalog.t;
  tgt_cats : (string * Catalog.t) list;
}

let make_context vfs ~targets =
  let llvm_cat = Catalog.build vfs Vega_tdlang.Vfs.llvmdirs in
  let tgt_cats =
    List.map (fun t -> (t, Catalog.build vfs (Vega_tdlang.Vfs.tgtdirs t))) targets
  in
  { vfs; llvm_cat; tgt_cats }

let add_target ctx target =
  if List.mem_assoc target ctx.tgt_cats then ctx
  else
    {
      ctx with
      tgt_cats =
        ctx.tgt_cats
        @ [ (target, Catalog.build ctx.vfs (Vega_tdlang.Vfs.tgtdirs target)) ];
    }

let prop_names t = List.map (fun p -> p.pname) t.props
let view t target = List.find_opt (fun v -> v.tv_target = target) t.views

let pattern t ~col ~line ~slot = List.assoc_opt (col, line, slot) t.slot_patterns

let candidates_for tv pname =
  Option.value ~default:[] (List.assoc_opt pname tv.candidates)

(* ------------------------------------------------------------------ *)
(* Token classification helpers                                        *)

let is_word tok =
  tok <> ""
  &&
  let c = tok.[0] in
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let keywords =
  [
    "if"; "else"; "switch"; "case"; "default"; "return"; "break"; "continue";
    "for"; "while"; "true"; "false"; "const"; "unsigned"; "int"; "bool";
    "void"; "nullptr"; "static_cast";
  ]

let is_candidate_word tok = is_word tok && not (List.mem tok keywords)

(* ------------------------------------------------------------------ *)
(* Target-independent properties for common code (Alg. 1 lines 8-24)   *)

(* Resolve one common-code token against one target's catalog. [Tgt_hit]
   means the property is specialized under this target's TGTDIRs (cases 1
   and 2 of Algorithm 1); [Llvm_hit] means it is only declared under
   LLVMDIRs (case 3) and thus holds for every target. *)
type ind_hit = Tgt_hit of string | Llvm_hit of string | No_hit

let independent_of_token ctx tgt_cat tok =
  let in_proplist = Catalog.is_prop ctx.llvm_cat tok in
  match Catalog.find_word tgt_cat tok with
  | _ :: _ when in_proplist -> Tgt_hit tok
  | _ -> (
      let hit =
        List.find_opt
          (fun (field, str, _) ->
            Strutil.loose_match tok str && Catalog.is_prop ctx.llvm_cat field)
          (Catalog.assignments tgt_cat)
      in
      match hit with
      | Some (field, _, _) -> Tgt_hit field
      | None -> if in_proplist then Llvm_hit tok else No_hit)

(* Presence test for a specialized independent property against one
   target's TGTDIRs (used for both training and held-out targets). *)
let specialized_present tgt_cat pname =
  Catalog.find_word tgt_cat pname <> []
  || List.exists (fun (f, _, _) -> f = pname) (Catalog.assignments tgt_cat)

(* ------------------------------------------------------------------ *)
(* Target-dependent properties for slot values (Alg. 1 lines 25-40)    *)

(* Resolve one slot word for one target. Returns the property plus the
   matched value (the whole word for enum members; the assignment's RHS
   for partial matches, in which case the word decomposes as
   pre ^ value ^ post). [context] (the interface-function name) breaks
   ties between fields sharing small values: "2" inside getReturnRegister
   resolves to RetReg, not LoadLatency. *)
let dependent_of_word ?(context = "") ctx tgt_cat word =
  match Catalog.enum_of_member tgt_cat word with
  | Some (enum_name, path) ->
      (* correlate a TGTDIRs enum with its LLVM counterpart through the
         first member's reference (Fixups -> FirstTargetFixupKind ->
         MCFixupKind), as in Sec. 2.1.2 *)
      let correlated =
        List.find_map
          (fun (p, (e : Vega_tdlang.Td_ast.enum_decl)) ->
            if p = path && e.enum_name = enum_name then
              match e.members with
              | (_, Vega_tdlang.Td_ast.Init_ref r) :: _ -> (
                  match Catalog.enum_of_member ctx.llvm_cat r with
                  | Some (llvm_enum, llvm_path) -> Some (llvm_enum, llvm_path)
                  | None -> None)
              | _ -> None
            else None)
          (Catalog.enum_decls tgt_cat)
      in
      let pname, ident =
        match correlated with
        | Some (llvm_enum, llvm_path) -> (llvm_enum, Some llvm_path)
        | None ->
            if Catalog.is_prop ctx.llvm_cat enum_name then
              (enum_name, Catalog.global_path ctx.llvm_cat enum_name)
            else (enum_name, None)
      in
      Some
        ( {
            pname;
            kind = Dependent;
            source = Enum_source enum_name;
            identified_site = ident;
          },
          word )
  | None -> (
      (* assignment partial match, requiring the RHS to embed in the word
         so that the word decomposes as pre ^ value ^ post; numeric words
         (register numbers, latencies) must match exactly — "1" inside
         "12" is not a match *)
      let numeric =
        word <> "" && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') word
      in
      (* among matching assignments prefer the longest RHS, so that a
         target-name value does not shadow a longer embedded value *)
      let score field str =
        (* longer matched values first, then affinity between the field
           name and the interface-function name *)
        (10.0 *. float_of_int (String.length str))
        +. Strutil.common_token_score field context
      in
      let hit =
        List.fold_left
          (fun acc (field, str, path) ->
            let matches =
              str <> ""
              && (if numeric then str = word
                  else
                    str = word
                    || (String.length str >= 2
                       && Strutil.contains_sub ~sub:str word))
              && Catalog.is_prop ctx.llvm_cat field
            in
            if not matches then acc
            else
              match acc with
              | Some (pf, ps, _) when score pf ps >= score field str -> acc
              | _ -> Some (field, str, path))
          None (Catalog.assignments tgt_cat)
      in
      match hit with
      | Some (field, str, _) ->
          Some
            ( {
                pname = field;
                kind = Dependent;
                source = Assign_source field;
                identified_site = Catalog.global_path ctx.llvm_cat field;
              },
              str )
      | None -> (
          (* LLVM-provided enum member (ISD node, DecodeStatus...): a
             shared vocabulary every target selects over *)
          match Catalog.enum_of_member ctx.llvm_cat word with
          | Some (enum_name, path) ->
              Some
                ( {
                    pname = enum_name;
                    kind = Dependent;
                    source = Llvm_enum_source enum_name;
                    identified_site = Some path;
                  },
                  word )
          | None -> None))

(* Candidate values of a dependent property for one target, in file
   order. *)
let candidates_of_prop ctx tgt_cat prop =
  match prop.source with
  | Enum_source enum_name ->
      let path = Option.value ~default:"" (Catalog.enum_path tgt_cat enum_name) in
      (* The correlated enum has the same NAME across targets (Fixups,
         Opcodes, VariantKind): look it up in this target's catalog. *)
      List.filter_map
        (fun m ->
          if Strutil.starts_with ~prefix:"Last" m || Strutil.starts_with ~prefix:"First" m
          then None
          else Some (m, path))
        (Catalog.members_of_enum tgt_cat enum_name)
  | Llvm_enum_source enum_name ->
      let path = Option.value ~default:"" (Catalog.enum_path ctx.llvm_cat enum_name) in
      List.map (fun m -> (m, path)) (Catalog.members_of_enum ctx.llvm_cat enum_name)
  | Assign_source field ->
      List.map (fun (v, p) -> (v, p)) (Catalog.assignments_of tgt_cat field)
  | Decl_presence -> []

(* ------------------------------------------------------------------ *)
(* Analysis driver                                                     *)

let max_props = 12

(* All common tokens of a template (Tok items across columns). *)
let common_tokens (tpl : Template.t) =
  let seen = Hashtbl.create 32 in
  let out = ref [] in
  let add tok =
    if is_candidate_word tok && not (Hashtbl.mem seen tok) then begin
      Hashtbl.add seen tok ();
      out := tok :: !out
    end
  in
  List.iter
    (function Template.Tok t -> add t | Template.Slot _ -> ())
    tpl.signature.items;
  List.iter
    (fun (col : Template.column) ->
      List.iter
        (fun st ->
          List.iter
            (function Template.Tok t -> add t | Template.Slot _ -> ())
            st.Template.items)
        col.unit)
    tpl.columns;
  List.rev !out

(* Slot contents of an instance line j of column c for a target. *)
let slot_values_of st (line : Preprocess.cline) =
  Template.match_instance st line.Preprocess.tokens

let majority lst =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun x ->
      Hashtbl.replace counts x
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts x)))
    lst;
  Hashtbl.fold (fun x c best ->
      match best with
      | Some (_, bc) when bc >= c -> best
      | _ -> Some (x, c))
    counts None
  |> Option.map fst

let analyze ctx (tpl : Template.t) =
  let props : (string, prop) Hashtbl.t = Hashtbl.create 16 in
  let prop_order = ref [] in
  (* A name may be claimed by both kinds (VariantKind is an independent
     presence property AND the enum supplying variant values); the
     dependent side gets a "...Value" alias. *)
  let rec register p =
    match Hashtbl.find_opt props p.pname with
    | Some existing when existing.kind = p.kind -> p.pname
    | Some _ -> register { p with pname = p.pname ^ "Value" }
    | None ->
        Hashtbl.add props p.pname p;
        prop_order := p.pname :: !prop_order;
        p.pname
  in
  (* --- independent properties from common tokens --- *)
  (* A property specialized under any target's TGTDIRs is per-target
     (VariantKind: true for ARM, false for MIPS); one declared only under
     LLVMDIRs holds everywhere (MCSymbolRefExpr). *)
  let specialized : (string, bool) Hashtbl.t = Hashtbl.create 16 in
  let tgt_hits : (string * string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun tok ->
      List.iter
        (fun (tname, tgt_cat) ->
          match independent_of_token ctx tgt_cat tok with
          | Tgt_hit pname ->
              let _ =
                register
                  {
                    pname;
                    kind = Independent;
                    source = Decl_presence;
                    identified_site = Catalog.global_path ctx.llvm_cat pname;
                  }
              in
              Hashtbl.replace specialized pname true;
              Hashtbl.replace tgt_hits (pname, tname) ()
          | Llvm_hit pname ->
              let _ =
                register
                  {
                    pname;
                    kind = Independent;
                    source = Decl_presence;
                    identified_site = Catalog.global_path ctx.llvm_cat pname;
                  }
              in
              if not (Hashtbl.mem specialized pname) then
                Hashtbl.replace specialized pname false
          | No_hit -> ())
        ctx.tgt_cats)
    (common_tokens tpl);
  let independent_presence pname tname tgt_cat =
    if Option.value ~default:false (Hashtbl.find_opt specialized pname) then
      Hashtbl.mem tgt_hits (pname, tname) || specialized_present tgt_cat pname
    else true
  in
  (* --- dependent properties from slots --- *)
  (* the signature participates as pseudo-column -1 *)
  let indexed_columns =
    (-1, Template.signature_column tpl)
    :: List.mapi (fun i c -> (i, c)) tpl.columns
  in
  let slot_patterns = ref [] in
  List.iter
    (fun (ci, (col : Template.column)) ->
      List.iteri
        (fun li st ->
          if st.Template.nslots > 0 then begin
            (* per slot: every instance's words plus its index *)
            let per_slot : (string * int * string list) list array =
              Array.make st.Template.nslots []
            in
            List.iter
              (fun (tname, insts) ->
                List.iteri
                  (fun inst_idx inst ->
                    let line = List.nth inst li in
                    match slot_values_of st line with
                    | Some values ->
                        List.iteri
                          (fun si toks ->
                            per_slot.(si) <-
                              (tname, inst_idx, toks) :: per_slot.(si))
                          values
                    | None -> ())
                  insts)
              col.Template.occurrences;
            let is_numeric w =
              w <> ""
              && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') w
            in
            let is_quoted w =
              String.length w >= 2 && w.[0] = '"' && w.[String.length w - 1] = '"'
            in
            let match_key w =
              if is_quoted w then String.sub w 1 (String.length w - 2) else w
            in
            let item_of tname inst_idx w : pattern_item =
              ignore inst_idx;
              let tgt_cat = List.assoc tname ctx.tgt_cats in
              if
                not
                  (is_candidate_word w || is_numeric w
                  || (is_quoted w && match_key w <> ""))
              then Plit w
              else
                match
                  dependent_of_word ~context:tpl.Template.fname ctx tgt_cat
                    (match_key w)
                with
                | Some (p, value) ->
                    let pname = register p in
                    if value = w then Pprop pname
                    else begin
                      let rec find i =
                        if i + String.length value > String.length w then 0
                        else if String.sub w i (String.length value) = value
                        then i
                        else find (i + 1)
                      in
                      let i = find 0 in
                      Pcompose
                        {
                          pre = String.sub w 0 i;
                          prop = pname;
                          post =
                            String.sub w
                              (i + String.length value)
                              (String.length w - i - String.length value);
                        }
                    end
                | None -> Plit w
            in
            Array.iteri
              (fun si instances ->
                match instances with
                | [] -> ()
                | _ ->
                    let single_word =
                      List.for_all (fun (_, _, toks) -> List.length toks = 1)
                        instances
                    in
                    if single_word && col.Template.repeated then begin
                      (* hypothesis scoring: the instance index, one
                         property, or a literal — whichever explains the
                         most instances wins (getArgRegister: IDX explains
                         every case label, ArgRegs every return value) *)
                      let n = List.length instances in
                      let idx_count =
                        List.length
                          (List.filter
                             (fun (_, idx, toks) ->
                               toks = [ string_of_int idx ])
                             instances)
                      in
                      let tally = Hashtbl.create 8 in
                      List.iter
                        (fun (tname, inst_idx, toks) ->
                          let w = List.hd toks in
                          match item_of tname inst_idx w with
                          | (Pprop _ | Pcompose _ | Plit _) as item ->
                              let key =
                                match item with
                                | Pprop p -> "P:" ^ p
                                | Pcompose { pre; prop; post } ->
                                    "C:" ^ pre ^ "|" ^ prop ^ "|" ^ post
                                | Plit l -> "L:" ^ l
                                | Pindex -> "I"
                              in
                              let prev =
                                match Hashtbl.find_opt tally key with
                                | Some (c, _) -> c
                                | None -> 0
                              in
                              Hashtbl.replace tally key (prev + 1, item)
                          | Pindex -> ())
                        instances;
                      let best_prop =
                        Hashtbl.fold
                          (fun key (c, item) acc ->
                            if String.length key > 0 && key.[0] = 'L' then acc
                            else
                              match acc with
                              | Some (bc, _) when bc >= c -> acc
                              | _ -> Some (c, item))
                          tally None
                      in
                      let best_any =
                        Hashtbl.fold
                          (fun _ (c, item) acc ->
                            match acc with
                            | Some (bc, _) when bc >= c -> acc
                            | _ -> Some (c, item))
                          tally None
                      in
                      let chosen =
                        match best_prop with
                        | Some (c, item) when c >= idx_count && c > n / 3 ->
                            Some [ item ]
                        | _ when idx_count > n / 2 -> Some [ Pindex ]
                        | _ -> (
                            match best_any with
                            | Some (_, item) -> Some [ item ]
                            | None -> None)
                      in
                      match chosen with
                      | Some pat ->
                          slot_patterns := ((ci, li, si), pat) :: !slot_patterns
                      | None -> ()
                    end
                    else begin
                      (* multi-word (qualified) slots: per-instance
                         patterns, plurality vote *)
                      let pats =
                        List.map
                          (fun (tname, inst_idx, toks) ->
                            List.map
                              (fun w ->
                                if
                                  col.Template.repeated
                                  && w = string_of_int inst_idx
                                then Pindex
                                else item_of tname inst_idx w)
                              toks)
                          instances
                      in
                      match majority pats with
                      | Some pat ->
                          slot_patterns := ((ci, li, si), pat) :: !slot_patterns
                      | None -> ()
                    end)
              per_slot
          end)
        col.Template.unit)
    indexed_columns;
  let ordered_props =
    List.filteri (fun i _ -> i < max_props) (List.rev !prop_order)
    |> List.map (Hashtbl.find props)
  in
  (* --- per-target views --- *)
  let view_of tname tgt_cat =
    {
      tv_target = tname;
      independent =
        List.filter_map
          (fun p ->
            if p.kind = Independent then
              Some (p.pname, independent_presence p.pname tname tgt_cat)
            else None)
          ordered_props;
      candidates =
        List.filter_map
          (fun p ->
            if p.kind = Dependent then Some (p.pname, candidates_of_prop ctx tgt_cat p)
            else None)
          ordered_props;
    }
  in
  {
    props = ordered_props;
    slot_patterns = List.rev !slot_patterns;
    views = List.map (fun (tname, cat) -> view_of tname cat) ctx.tgt_cats;
  }

(* Specialized-property bookkeeping must survive into generation: a
   property is treated as per-target when ANY training view disagrees on
   it; otherwise it holds everywhere. *)
let prop_specialized analysis pname =
  let vals =
    List.filter_map (fun v -> List.assoc_opt pname v.independent) analysis.views
  in
  List.exists not vals

let view_for_new_target ctx (_tpl : Template.t) analysis target =
  let tgt_cat =
    match List.assoc_opt target ctx.tgt_cats with
    | Some c -> c
    | None -> Catalog.build ctx.vfs (Vega_tdlang.Vfs.tgtdirs target)
  in
  {
    tv_target = target;
    independent =
      List.filter_map
        (fun p ->
          if p.kind = Independent then
            let present =
              if prop_specialized analysis p.pname then
                specialized_present tgt_cat p.pname
              else true
            in
            Some (p.pname, present)
          else None)
        analysis.props;
    candidates =
      List.filter_map
        (fun p ->
          if p.kind = Dependent then Some (p.pname, candidates_of_prop ctx tgt_cat p)
          else None)
        analysis.props;
  }
