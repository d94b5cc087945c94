module Lcs = Vega_util.Lcs

type tpl_token = Tok of string | Slot of int
type stmt_template = { kind : string; items : tpl_token list; nslots : int }

type column = {
  unit : stmt_template list;
  repeated : bool;
  occurrences : (string * Preprocess.cline list list) list;
}

type t = {
  fname : string;
  module_ : Vega_target.Module_id.t;
  signature : stmt_template;
  signatures : (string * Preprocess.cline) list;
  columns : column list;
  targets : string list;
}

let tokens_of_template tpl =
  List.map
    (function Tok t -> t | Slot k -> Printf.sprintf "<SV%d>" k)
    tpl.items

(* ------------------------------------------------------------------ *)
(* Statement templates                                                 *)

let build_stmt_template kind (variants : string list list) =
  match variants with
  | [] -> { kind; items = []; nslots = 0 }
  | _ ->
      let rep =
        List.fold_left
          (fun acc v -> if List.length v > List.length acc then v else acc)
          (List.hd variants) variants
      in
      let rep_arr = Array.of_list rep in
      let n = Array.length rep_arr in
      (* matched.(i) = how many variants matched rep position i via LCS;
         gap_content.(g) = does any variant put tokens in gap g (between
         common positions)? computed after common is known, so first
         collect per-variant pair lists. *)
      let nv = List.length variants in
      let matched = Array.make n 0 in
      let all_pairs =
        List.map
          (fun v ->
            let v_arr = Array.of_list v in
            let pairs = Lcs.lcs ~eq:String.equal rep_arr v_arr in
            List.iter (fun (ri, _) -> matched.(ri) <- matched.(ri) + 1) pairs;
            (v_arr, pairs))
          variants
      in
      let common = Array.init n (fun i -> matched.(i) = nv) in
      let common_positions =
        List.filter (fun i -> common.(i)) (List.init n Fun.id)
      in
      let ncommon = List.length common_positions in
      (* gap g lies before common position g (g in 0..ncommon); does any
         variant have content there? For a variant with pairs, content in
         gap g = tokens strictly between the matches of common positions
         g-1 and g. Rep content in gap counts too. *)
      let common_arr = Array.of_list common_positions in
      let gap_has = Array.make (ncommon + 1) false in
      (* rep's own non-common tokens *)
      let gap_of_rep_pos i =
        (* number of common positions < i *)
        let rec go g = if g < ncommon && common_arr.(g) < i then go (g + 1) else g in
        go 0
      in
      for i = 0 to n - 1 do
        if not common.(i) then gap_has.(gap_of_rep_pos i) <- true
      done;
      List.iter
        (fun (v_arr, pairs) ->
          (* v position of the match of each common rep position *)
          let vpos = Array.make ncommon (-1) in
          List.iter
            (fun (ri, vi) ->
              if common.(ri) then begin
                let rec idx g =
                  if g >= ncommon then ()
                  else if common_arr.(g) = ri then vpos.(g) <- vi
                  else idx (g + 1)
                in
                idx 0
              end)
            pairs;
          (* gap g spans v indices (vpos.(g-1), vpos.(g)) exclusive *)
          for g = 0 to ncommon do
            let lo = if g = 0 then -1 else vpos.(g - 1) in
            let hi = if g = ncommon then Array.length v_arr else vpos.(g) in
            if hi - lo > 1 then gap_has.(g) <- true
          done)
        all_pairs;
      let items = ref [] and nslots = ref 0 in
      for g = 0 to ncommon do
        if gap_has.(g) then begin
          items := Slot !nslots :: !items;
          incr nslots
        end;
        if g < ncommon then items := Tok rep_arr.(common_arr.(g)) :: !items
      done;
      { kind; items = List.rev !items; nslots = !nslots }

let match_instance tpl tokens =
  let toks = Array.of_list tokens in
  let n = Array.length toks in
  let values = Array.make (max 1 tpl.nslots) [] in
  let rec go items pos =
    match items with
    | [] -> if pos = n then Some () else None
    | Tok t :: rest ->
        if pos < n && toks.(pos) = t then go rest (pos + 1) else None
    | Slot k :: rest -> (
        (* slot extends until the next anchor token (or end) *)
        match rest with
        | [] ->
            values.(k) <- Array.to_list (Array.sub toks pos (n - pos));
            Some ()
        | Tok t :: _ ->
            (* choose the shortest slot whose following anchor matches and
               lets the remainder match; try successive anchor positions *)
            let rec try_at p =
              if p >= n then None
              else if toks.(p) = t then begin
                let saved = Array.copy values in
                values.(k) <- Array.to_list (Array.sub toks pos (p - pos));
                match go rest p with
                | Some () -> Some ()
                | None ->
                    Array.blit saved 0 values 0 (Array.length saved);
                    try_at (p + 1)
              end
              else try_at (p + 1)
            in
            try_at pos
        | Slot _ :: _ ->
            (* adjacent slots: give everything to the first *)
            values.(k) <- [];
            go rest pos)
  in
  match go tpl.items 0 with
  | Some () -> Some (Array.to_list (Array.sub values 0 tpl.nslots))
  | None -> None

let render_instance tpl slot_values =
  let values = Array.of_list slot_values in
  List.concat_map
    (function
      | Tok t -> [ t ]
      | Slot k -> if k < Array.length values then values.(k) else [])
    tpl.items

(* ------------------------------------------------------------------ *)
(* Function templates                                                  *)

let head_of (item : Preprocess.citem) = Preprocess.item_head item

let item_as_alignable (item : Preprocess.citem) =
  let h = head_of item in
  (h.Preprocess.kind, h.Preprocess.tokens)

(* Column under construction: pivot item index or insertion, with
   per-target occurrences collected progressively. *)
type proto = {
  mutable occs : (string * Preprocess.cline list list) list;
  mutable any_repeat : bool;
}

let occurrences_of (item : Preprocess.citem) =
  match item with
  | Preprocess.Single l -> [ [ l ] ]
  | Preprocess.Repeat insts -> insts

let build ~fname ~module_ impls ~signature_lines =
  let targets = List.map fst impls in
  (* pivot: implementation with the most items *)
  let pivot_target, pivot_items =
    List.fold_left
      (fun (bt, bi) (t, items) ->
        if List.length items > List.length bi then (t, items) else (bt, bi))
      (match impls with
      | (t, items) :: _ -> (t, items)
      | [] -> invalid_arg "Template.build: empty group")
      impls
  in
  let pivot_arr = Array.of_list pivot_items in
  let npivot = Array.length pivot_arr in
  (* protos: one per pivot item, plus growing inserted columns encoded as
     (position, proto) with position = pivot index they follow. *)
  let protos =
    Array.init npivot (fun k ->
        {
          occs = [ (pivot_target, occurrences_of pivot_arr.(k)) ];
          any_repeat =
            (match pivot_arr.(k) with
            | Preprocess.Repeat _ -> true
            | Preprocess.Single _ -> false);
        })
  in
  let inserted : (int * proto) list ref = ref [] in
  let pivot_align = Array.map item_as_alignable pivot_arr in
  List.iter
    (fun (tname, items) ->
      if tname <> pivot_target then begin
        let arr = Array.of_list items in
        let align_arr = Array.map item_as_alignable arr in
        let slots = Vega_gumtree.Stmt_align.align pivot_align align_arr in
        let last_pivot = ref (-1) in
        List.iter
          (fun { Vega_gumtree.Stmt_align.left; right } ->
            match (left, right) with
            | Some pi, Some vi ->
                last_pivot := pi;
                let proto = protos.(pi) in
                proto.occs <- (tname, occurrences_of arr.(vi)) :: proto.occs;
                (match arr.(vi) with
                | Preprocess.Repeat _ -> proto.any_repeat <- true
                | Preprocess.Single _ -> ())
            | Some pi, None -> last_pivot := pi
            | None, Some vi ->
                (* statement with no pivot counterpart: new column after
                   the last matched pivot position *)
                let proto =
                  {
                    occs = [ (tname, occurrences_of arr.(vi)) ];
                    any_repeat =
                      (match arr.(vi) with
                      | Preprocess.Repeat _ -> true
                      | Preprocess.Single _ -> false);
                  }
                in
                inserted := (!last_pivot, proto) :: !inserted
            | None, None -> ())
          slots
      end)
    impls;
  (* order: pivot columns with inserted columns spliced after their anchor *)
  let ordered = ref [] in
  let emit_inserted anchor =
    List.iter
      (fun (pos, proto) -> if pos = anchor then ordered := proto :: !ordered)
      (List.rev !inserted)
  in
  emit_inserted (-1);
  for k = 0 to npivot - 1 do
    ordered := protos.(k) :: !ordered;
    emit_inserted k
  done;
  let protos = List.rev !ordered in
  (* finalize columns *)
  let columns =
    List.filter_map
      (fun proto ->
        let occs = List.rev proto.occs in
        (* unit length: majority across occurrences *)
        let lengths =
          List.concat_map
            (fun (_, insts) -> List.map List.length insts)
            occs
        in
        match lengths with
        | [] -> None
        | _ ->
            let counts = Hashtbl.create 4 in
            List.iter
              (fun l ->
                Hashtbl.replace counts l
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
              lengths;
            let unit_len, _ =
              Hashtbl.fold
                (fun l c (bl, bc) -> if c > bc then (l, c) else (bl, bc))
                counts (0, 0)
            in
            let occs =
              List.filter_map
                (fun (t, insts) ->
                  match
                    List.filter (fun inst -> List.length inst = unit_len) insts
                  with
                  | [] -> None
                  | kept -> Some (t, kept))
                occs
            in
            if occs = [] then None
            else
              let unit =
                List.init unit_len (fun j ->
                    let variants =
                      List.concat_map
                        (fun (_, insts) ->
                          List.map
                            (fun inst ->
                              (List.nth inst j).Preprocess.tokens)
                            insts)
                        occs
                    in
                    let kind =
                      (List.nth (List.hd (snd (List.hd occs))) j).Preprocess.kind
                    in
                    build_stmt_template kind variants)
              in
              Some { unit; repeated = proto.any_repeat; occurrences = occs })
      protos
  in
  let signature =
    build_stmt_template "fundef"
      (List.map (fun (_, l) -> l.Preprocess.tokens) signature_lines)
  in
  { fname; module_; signature; signatures = signature_lines; columns; targets }

(* The function-definition statement viewed as a pseudo-column (used with
   column index -1 by feature selection and generation). *)
let signature_column t =
  {
    unit = [ t.signature ];
    repeated = false;
    occurrences = List.map (fun (tn, l) -> (tn, [ [ l ] ])) t.signatures;
  }
