(* Unit and property tests for vega.util. *)

module Lcs = Vega_util.Lcs
module Strutil = Vega_util.Strutil
module Rng = Vega_util.Rng

let test_lcs_basic () =
  let xs = [| "a"; "b"; "c"; "d" |] and ys = [| "b"; "d"; "e" |] in
  Alcotest.(check int) "length" 2 (Lcs.lcs_length ~eq:String.equal xs ys);
  Alcotest.(check (list (pair int int)))
    "pairs" [ (1, 0); (3, 1) ]
    (Lcs.lcs ~eq:String.equal xs ys)

let test_lcs_empty () =
  Alcotest.(check int) "empty" 0 (Lcs.lcs_length ~eq:String.equal [||] [| "x" |]);
  Alcotest.(check (float 1e-9)) "similarity of empties" 1.0
    (Lcs.similarity ~eq:String.equal [||] [||])

let qcheck_lcs_bounds =
  QCheck.Test.make ~name:"lcs length bounded by min length" ~count:200
    QCheck.(pair (small_list small_nat) (small_list small_nat))
    (fun (xs, ys) ->
      let a = Array.of_list xs and b = Array.of_list ys in
      let l = Lcs.lcs_length ~eq:Int.equal a b in
      l <= min (Array.length a) (Array.length b) && l >= 0)

let qcheck_lcs_self =
  QCheck.Test.make ~name:"lcs of a sequence with itself is itself" ~count:100
    QCheck.(small_list small_nat)
    (fun xs ->
      let a = Array.of_list xs in
      Lcs.lcs_length ~eq:Int.equal a a = Array.length a)

let qcheck_similarity_sym =
  QCheck.Test.make ~name:"similarity is symmetric" ~count:100
    QCheck.(pair (small_list small_nat) (small_list small_nat))
    (fun (xs, ys) ->
      let a = Array.of_list xs and b = Array.of_list ys in
      Float.abs
        (Lcs.similarity ~eq:Int.equal a b -. Lcs.similarity ~eq:Int.equal b a)
      < 1e-9)

let test_camel_words () =
  Alcotest.(check (list string)) "IsPCRel" [ "Is"; "PC"; "Rel" ]
    (Strutil.camel_words "IsPCRel");
  Alcotest.(check (list string))
    "fixup_arm_movt_hi16"
    [ "fixup"; "arm"; "movt"; "hi16" ]
    (Strutil.camel_words "fixup_arm_movt_hi16");
  Alcotest.(check (list string)) "OPERAND_PCREL" [ "OPERAND"; "PCREL" ]
    (Strutil.camel_words "OPERAND_PCREL")

let test_loose_match () =
  Alcotest.(check bool) "IsPCRel ~ OPERAND_PCREL" true
    (Strutil.loose_match "IsPCRel" "OPERAND_PCREL");
  Alcotest.(check bool) "short fragments never match" false
    (Strutil.loose_match "Modifier" "r");
  Alcotest.(check bool) "unrelated" false (Strutil.loose_match "Kind" "little")

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done

let test_shuffle_permutes () =
  let r = Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_texttab () =
  let t = Vega_util.Texttab.create ~headers:[ "a"; "bb" ] in
  Vega_util.Texttab.add_row t [ "xxx"; "y" ];
  let s = Vega_util.Texttab.render t in
  Alcotest.(check bool) "contains row" true (Strutil.contains_sub ~sub:"xxx" s);
  Alcotest.(check string) "pct" "71.5%" (Vega_util.Texttab.fmt_pct 0.715)

let suite =
  [
    Alcotest.test_case "lcs basic" `Quick test_lcs_basic;
    Alcotest.test_case "lcs empty" `Quick test_lcs_empty;
    QCheck_alcotest.to_alcotest qcheck_lcs_bounds;
    QCheck_alcotest.to_alcotest qcheck_lcs_self;
    QCheck_alcotest.to_alcotest qcheck_similarity_sym;
    Alcotest.test_case "camel words" `Quick test_camel_words;
    Alcotest.test_case "loose match" `Quick test_loose_match;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "texttab" `Quick test_texttab;
  ]
