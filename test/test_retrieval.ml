(* Parity of the inverted-index retrieval decoder with the linear cosine
   scan it replaced. *)

module V = Vega

(* The retrieval decoder as it was before the inverted index, kept
   verbatim as the executable reference: [V.Retrieval.decode] must
   return its output and every score bit for every query. It reads only
   [fv.input], so it can be built from [Pipeline.t.train_pairs]. *)
module Ref_retrieval = struct
  module Featrep = V.Featrep

  type entry = { bag : (string, float) Hashtbl.t; norm : float; output : string list }

  type t = entry array

  let bag_of tokens =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun tok ->
        Hashtbl.replace tbl tok
          (1.0 +. Option.value ~default:0.0 (Hashtbl.find_opt tbl tok)))
      tokens;
    tbl

  let norm_of tbl =
    sqrt (Hashtbl.fold (fun _ c acc -> acc +. (c *. c)) tbl 0.0)

  let build pairs =
    Array.of_list
      (List.map
         (fun ((fv : Featrep.fv), output) ->
           let bag = bag_of fv.input in
           { bag; norm = norm_of bag; output })
         pairs)

  let size t = Array.length t
  let outputs t = Array.to_list (Array.map (fun e -> e.output) t)

  let cosine a b =
    let dot = ref 0.0 in
    Hashtbl.iter
      (fun tok c ->
        match Hashtbl.find_opt b.bag tok with
        | Some c' -> dot := !dot +. (c *. c')
        | None -> ())
      a.bag;
    if a.norm = 0.0 || b.norm = 0.0 then 0.0 else !dot /. (a.norm *. b.norm)

  let decode t (fv : Featrep.fv) =
    let query =
      let bag = bag_of fv.input in
      { bag; norm = norm_of bag; output = [] }
    in
    let best = ref None in
    Array.iter
      (fun e ->
        let s = cosine query e in
        match !best with
        | Some (_, bs) when bs >= s -> ()
        | _ -> best := Some (e, s))
      t;
    match !best with
    | Some (e, s) -> (e.output, Array.make (List.length e.output) s)
    | None -> ([], [||])
end

let fv input : V.Featrep.fv =
  {
    fname = "";
    col = 0;
    line = 0;
    inst = 0;
    target = "";
    present = true;
    score = 0.0;
    registers = [];
    input;
    output = None;
  }

let bits (out, probs) =
  (out, Array.to_list (Array.map Int64.bits_of_float probs))

(* [None] when both decoders agree on [query], else a description of the
   first difference. *)
let disagreement index reference query =
  let got = bits (V.Retrieval.decode index (fv query))
  and want = bits (Ref_retrieval.decode reference (fv query)) in
  if got = want then None
  else
    let show (out, probs) =
      Printf.sprintf "[%s] scores [%s]" (String.concat " " out)
        (String.concat " " (List.map (Printf.sprintf "%Lx") probs))
    in
    Some
      (Printf.sprintf "query [%s]: index %s, scan %s"
         (String.concat " " query) (show got) (show want))

let build_both pairs =
  let pairs = List.map (fun (input, output) -> (fv input, output)) pairs in
  (V.Retrieval.build pairs, Ref_retrieval.build pairs)

(* ---------------- random indexes ---------------- *)

(* Entries draw from six tokens and queries from eight, two of which no
   entry holds: short bags from a small alphabet make shared tokens,
   repeated tokens, duplicate inputs and exact score ties common, and
   leave some queries overlapping nothing. Every output ends in its
   entry's own tag, so a tie resolved to another entry shows. *)
let case_gen =
  QCheck.Gen.(
    let token n =
      map (fun i -> String.make 1 (Char.chr (97 + i))) (int_bound (n - 1))
    in
    let bag n = list_size (int_bound 6) (token n) in
    pair
      (list_size (int_bound 12)
         (pair (bag 6) (list_size (int_bound 2) (token 6))))
      (list_size (int_range 1 8) (bag 8)))

let show_case (entries, queries) =
  let words l = "[" ^ String.concat " " l ^ "]" in
  Printf.sprintf "entries %s; queries %s"
    (String.concat ", "
       (List.map (fun (i, o) -> words i ^ " -> " ^ words o) entries))
    (String.concat ", " (List.map words queries))

let pairs_of entries =
  List.mapi
    (fun k (input, extra) -> (input, extra @ [ Printf.sprintf "e%d" k ]))
    entries

let qcheck_parity =
  QCheck.Test.make ~name:"index = linear scan, output and score bits"
    ~count:1000 (QCheck.make ~print:show_case case_gen)
    (fun (entries, queries) ->
      let pairs = pairs_of entries in
      let index, reference = build_both pairs in
      if V.Retrieval.size index <> Ref_retrieval.size reference then
        QCheck.Test.fail_report "size differs";
      if V.Retrieval.outputs index <> Ref_retrieval.outputs reference then
        QCheck.Test.fail_report "outputs differ";
      List.iter
        (fun q ->
          Option.iter QCheck.Test.fail_report (disagreement index reference q))
        ([] :: queries);
      true)

(* The cases the decoder's contract names, pinned rather than left to
   the generator. *)
let test_edge_cases () =
  let empty, empty_ref = build_both [] in
  Alcotest.(check bool) "empty index" true
    (V.Retrieval.decode empty (fv [ "a" ]) = ([], [||])
    && disagreement empty empty_ref [ "a" ] = None);
  let pairs =
    [
      ([], [ "none" ]);
      ([ "a"; "a"; "b" ], [ "aab" ]);
      ([ "b"; "a"; "a" ], [ "baa" ]);
      ([ "c" ], [ "c"; "c" ]);
    ]
  in
  let index, reference = build_both pairs in
  List.iter
    (fun q ->
      Alcotest.(check (option string))
        (Printf.sprintf "query [%s]" (String.concat " " q))
        None (disagreement index reference q))
    [
      []; [ "z" ]; [ "a" ]; [ "a"; "a" ]; [ "b"; "a"; "a" ]; [ "c"; "z" ];
      [ "c"; "c" ];
    ];
  let out, probs = V.Retrieval.decode index (fv [ "z" ]) in
  Alcotest.(check (list string))
    "no overlap falls back to entry 0" [ "none" ] out;
  Alcotest.(check (list (float 0.0)))
    "with score 0.0" [ 0.0 ] (Array.to_list probs);
  Alcotest.(check (list string)) "a tie goes to the lowest index" [ "aab" ]
    (fst (V.Retrieval.decode index (fv [ "a"; "b" ])))

(* ---------------- the held-out backends ---------------- *)

let test_heldout_backends () =
  let t = Lazy.force Test_robust.pipeline in
  let reference =
    Ref_retrieval.build
      (List.map
         (fun (input, output) -> (fv input, output))
         t.V.Pipeline.train_pairs)
  in
  Alcotest.(check bool) "train pairs are the index's entries, in order" true
    (Ref_retrieval.outputs reference
    = V.Retrieval.outputs t.V.Pipeline.retrieval);
  (* generation degrades around a raising decoder, so the decoder records
     the first difference and the test reports it after the run *)
  let calls = ref 0 and first = ref None in
  let decoder (q : V.Featrep.fv) =
    incr calls;
    (if !first = None then
       first := disagreement t.V.Pipeline.retrieval reference q.input);
    V.Retrieval.decode t.V.Pipeline.retrieval q
  in
  List.iter
    (fun (p : Vega_target.Profile.t) ->
      ignore (V.Pipeline.generate_backend t ~target:p.name ~decoder))
    Vega_target.Registry.held_out;
  Option.iter (Alcotest.failf "after %d decodes: %s" !calls) !first;
  Alcotest.(check bool) "decoded every held-out backend" true (!calls > 1000)

let suite =
  [
    Alcotest.test_case "edge cases" `Quick test_edge_cases;
    QCheck_alcotest.to_alcotest qcheck_parity;
    Alcotest.test_case "held-out backends = linear scan" `Slow
      test_heldout_backends;
  ]
