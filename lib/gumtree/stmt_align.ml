type slot = { left : int option; right : int option }

let pair_similarity (ka, ta) (kb, tb) =
  if ka <> kb then 0.0
  else
    let ta = Array.of_list ta and tb = Array.of_list tb in
    Vega_util.Lcs.similarity ~eq:String.equal ta tb

(* Minimum pairing score: below this two statements are not considered
   versions of the same template statement. Case labels pair at any
   similarity (their value is entirely target-specific). *)
let min_score = 0.3

let anchors left right =
  let t1 = Tree.of_lines (Array.to_list left) in
  let t2 = Tree.of_lines (Array.to_list right) in
  let m = Matching.gumtree t1 t2 in
  (* statement-level nodes are the children of each root, in order *)
  let stmt_ids (t : Tree.t) = Array.of_list (List.map (fun (c : Tree.t) -> c.id) t.children) in
  let ids1 = stmt_ids t1 and ids2 = stmt_ids t2 in
  let index_of ids id =
    let n = Array.length ids in
    let rec go i = if i >= n then None else if ids.(i) = id then Some i else go (i + 1) in
    go 0
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((a : Tree.t), (b : Tree.t)) ->
      match (index_of ids1 a.id, index_of ids2 b.id) with
      | Some i, Some j -> Hashtbl.replace tbl (i, j) ()
      | _ -> ())
    (Matching.pairs m);
  tbl

let align left right =
  let n = Array.length left and m = Array.length right in
  let anch = anchors left right in
  let score i j =
    let s = pair_similarity left.(i) right.(j) in
    let s = if Hashtbl.mem anch (i, j) then s +. 0.5 else s in
    let is_case (k, _) = k = "case" in
    if is_case left.(i) && is_case right.(j) then max s 0.5 else s
  in
  (* Needleman–Wunsch, gap penalty 0, pairing only when score >= min_score. *)
  let best = Array.make_matrix (n + 1) (m + 1) 0.0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      let s = score i j in
      let diag = if s >= min_score then s +. best.(i + 1).(j + 1) else neg_infinity in
      best.(i).(j) <- max (max best.(i + 1).(j) best.(i).(j + 1)) diag
    done
  done;
  let rec walk i j acc =
    if i >= n && j >= m then List.rev acc
    else if i >= n then walk i (j + 1) ({ left = None; right = Some j } :: acc)
    else if j >= m then walk (i + 1) j ({ left = Some i; right = None } :: acc)
    else
      let s = score i j in
      let diag = if s >= min_score then s +. best.(i + 1).(j + 1) else neg_infinity in
      if diag >= best.(i).(j) -. 1e-9 && diag > neg_infinity then
        walk (i + 1) (j + 1) ({ left = Some i; right = Some j } :: acc)
      else if best.(i + 1).(j) >= best.(i).(j + 1) then
        walk (i + 1) j ({ left = Some i; right = None } :: acc)
      else walk i (j + 1) ({ left = None; right = Some j } :: acc)
  in
  walk 0 0 []
