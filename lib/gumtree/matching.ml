type mapping = {
  fwd : (int, Tree.t) Hashtbl.t;  (* t1 node id -> t2 node *)
  bwd : (int, Tree.t) Hashtbl.t;
  mutable plist : (Tree.t * Tree.t) list;
}

let create () = { fwd = Hashtbl.create 64; bwd = Hashtbl.create 64; plist = [] }
let pairs m = List.rev m.plist
let src_of m (n : Tree.t) = Hashtbl.find_opt m.fwd n.id
let mapped_src m (n : Tree.t) = Hashtbl.mem m.fwd n.id
let mapped_dst m (n : Tree.t) = Hashtbl.mem m.bwd n.id

let add m (a : Tree.t) (b : Tree.t) =
  if not (mapped_src m a || mapped_dst m b) then begin
    Hashtbl.add m.fwd a.id b;
    Hashtbl.add m.bwd b.id a;
    m.plist <- (a, b) :: m.plist
  end

let rec add_isomorphic m (a : Tree.t) (b : Tree.t) =
  add m a b;
  List.iter2 (add_isomorphic m) a.children b.children

let dice m (a : Tree.t) (b : Tree.t) =
  let da = Tree.descendants a and db = Tree.descendants b in
  let matched =
    List.fold_left
      (fun acc (n : Tree.t) ->
        match src_of m n with
        | Some img ->
            if List.exists (fun (x : Tree.t) -> x.id = img.id) db then acc + 1 else acc
        | None -> acc)
      0 da
  in
  let denom = List.length da + List.length db in
  if denom = 0 then 0.0 else 2.0 *. float_of_int matched /. float_of_int denom

let top_down ?(min_height = 0) t1 t2 =
  let m = create () in
  (* Process nodes of t1 by decreasing height; for each, collect isomorphic
     unmatched candidates in t2 and greedily pair unique ones. *)
  let nodes1 =
    Tree.descendants t1
    |> List.filter (fun (n : Tree.t) -> n.height >= min_height)
    |> List.sort (fun (a : Tree.t) (b : Tree.t) -> compare b.height a.height)
  in
  let by_hash = Hashtbl.create 64 in
  List.iter
    (fun (n : Tree.t) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_hash n.hash) in
      Hashtbl.replace by_hash n.hash (l @ [ n ]))
    (Tree.descendants t2);
  List.iter
    (fun (a : Tree.t) ->
      if not (mapped_src m a) then
        let candidates =
          Option.value ~default:[] (Hashtbl.find_opt by_hash a.hash)
          |> List.filter (fun (b : Tree.t) ->
                 (not (mapped_dst m b)) && Tree.isomorphic a b)
        in
        match candidates with
        | [ b ] -> add_isomorphic m a b
        | b :: _ ->
            (* ambiguous: keep the first in document order (greedy) *)
            add_isomorphic m a b
        | [] -> ())
    nodes1;
  m

let bottom_up ?(min_dice = 0.3) t1 t2 m =
  (* post-order over t1: containers with matched descendants get matched to
     the candidate container in t2 maximizing dice. *)
  let rec post (n : Tree.t) = List.concat_map post n.children @ [ n ] in
  let t2_nodes = Tree.descendants t2 in
  List.iter
    (fun (a : Tree.t) ->
      if (not (mapped_src m a)) && a.children <> [] then begin
        (* candidate containers: parents of images of a's matched leaves —
           approximated by scanning all unmatched containers of t2 with the
           same label. *)
        let cands =
          List.filter
            (fun (b : Tree.t) ->
              (not (mapped_dst m b)) && b.children <> [] && b.label = a.label)
            t2_nodes
        in
        let best =
          List.fold_left
            (fun acc b ->
              let d = dice m a b in
              match acc with
              | Some (_, bd) when bd >= d -> acc
              | _ when d >= min_dice -> Some (b, d)
              | _ -> acc)
            None cands
        in
        match best with Some (b, _) -> add m a b | None -> ()
      end)
    (post t1);
  m

let gumtree t1 t2 =
  let m = top_down t1 t2 in
  bottom_up t1 t2 m
