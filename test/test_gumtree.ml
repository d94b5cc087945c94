(* Tests for the GumTree-style matcher and the statement aligner. *)

module G = Vega_gumtree

let leafs = List.map G.Tree.leaf

let test_isomorphic () =
  let a = G.Tree.node "f" (leafs [ "x"; "y" ]) in
  let b = G.Tree.node "f" (leafs [ "x"; "y" ]) in
  let c = G.Tree.node "f" (leafs [ "x"; "z" ]) in
  Alcotest.(check bool) "iso" true (G.Tree.isomorphic a b);
  Alcotest.(check bool) "not iso" false (G.Tree.isomorphic a c)

let test_descendants () =
  let t = G.Tree.node "a" [ G.Tree.node "b" (leafs [ "c" ]); G.Tree.leaf "d" ] in
  Alcotest.(check int) "count" 4 (List.length (G.Tree.descendants t));
  Alcotest.(check int) "size" 4 t.G.Tree.size;
  Alcotest.(check int) "height" 2 t.G.Tree.height

let test_top_down () =
  let t1 =
    G.Tree.of_lines [ ("simple", [ "a"; "b" ]); ("if", [ "if"; "("; "c"; ")" ]) ]
  in
  let t2 =
    G.Tree.of_lines [ ("simple", [ "a"; "b" ]); ("if", [ "if"; "("; "d"; ")" ]) ]
  in
  let m = G.Matching.top_down t1 t2 in
  (* the identical statement subtree is matched as an anchor *)
  let stmt1 = List.hd t1.G.Tree.children in
  match G.Matching.src_of m stmt1 with
  | Some img -> Alcotest.(check string) "anchored" "simple" img.G.Tree.label
  | None -> Alcotest.fail "no anchor match"

let test_bottom_up () =
  let t1 = G.Tree.of_lines [ ("case", [ "case"; "A"; ":" ]) ] in
  let t2 = G.Tree.of_lines [ ("case", [ "case"; "B"; ":" ]) ] in
  let m = G.Matching.gumtree t1 t2 in
  (* roots must pair despite differing leaves *)
  match G.Matching.src_of m t1 with
  | Some img -> Alcotest.(check bool) "roots matched" true (img.G.Tree.id = t2.G.Tree.id)
  | None -> Alcotest.fail "roots unmatched"

let mk_lines l = Array.of_list (List.map (fun toks -> ("simple", toks)) l)

let test_align_monotone () =
  let left = mk_lines [ [ "a"; "1" ]; [ "b"; "2" ]; [ "c"; "3" ] ] in
  let right = mk_lines [ [ "a"; "1" ]; [ "x"; "9"; "9"; "9" ]; [ "c"; "3" ] ] in
  let slots = G.Stmt_align.align left right in
  let pairs =
    List.filter_map
      (fun { G.Stmt_align.left; right } ->
        match (left, right) with Some i, Some j -> Some (i, j) | _ -> None)
      slots
  in
  Alcotest.(check bool) "monotone" true
    (List.for_all2 (fun (a, b) (c, d) -> a < c && b < d)
       (List.filteri (fun i _ -> i < List.length pairs - 1) pairs)
       (List.tl pairs));
  Alcotest.(check bool) "a and c paired" true
    (List.mem (0, 0) pairs && List.mem (2, 2) pairs)

let qcheck_align_covers =
  let gen =
    QCheck.(pair (small_list (small_list small_nat)) (small_list (small_list small_nat)))
  in
  QCheck.Test.make ~name:"alignment covers every index exactly once" ~count:100 gen
    (fun (l, r) ->
      let to_arr x =
        Array.of_list (List.map (fun toks -> ("k", List.map string_of_int toks)) x)
      in
      let left = to_arr l and right = to_arr r in
      let slots = G.Stmt_align.align left right in
      let ls = List.filter_map (fun s -> s.G.Stmt_align.left) slots in
      let rs = List.filter_map (fun s -> s.G.Stmt_align.right) slots in
      ls = List.init (Array.length left) Fun.id
      && rs = List.init (Array.length right) Fun.id)

let suite =
  [
    Alcotest.test_case "isomorphic" `Quick test_isomorphic;
    Alcotest.test_case "descendants" `Quick test_descendants;
    Alcotest.test_case "top down" `Quick test_top_down;
    Alcotest.test_case "bottom up" `Quick test_bottom_up;
    Alcotest.test_case "align monotone" `Quick test_align_monotone;
    QCheck_alcotest.to_alcotest qcheck_align_covers;
  ]
