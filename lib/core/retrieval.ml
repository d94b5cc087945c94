(* An exact inverted index over the training inputs. Each entry's input
   is a bag of token counts; each interned token owns a run of flat
   postings (entry index, the entry's count of that token) in entry
   order. A query walks only the postings of its own tokens into a
   per-entry dot accumulator, so an entry that shares no token keeps a
   dot of 0.0, exactly what the full cosine scan gave it.

   Exactness: counts are integer-valued floats, so every dot product
   and squared norm is an integer far below 2^53 and sums exactly in
   any order. The score is then formed from the same operands in the
   same order as the scan's, so every score bit matches it. The argmax
   runs over all entries in index order and replaces the best only when
   [not (best >= s)]: ties go to the lowest index, and a query that
   overlaps nothing gets entry 0 with score 0.0.

   The index is read-only after [build], because one decoder closure is
   shared across domains. The accumulator is domain-local scratch,
   grown to the largest index decoded on that domain and cleared at the
   start of every call. *)

type t = {
  token_ids : (string, int) Hashtbl.t;
  starts : int array;
      (* token [i]'s postings are [starts.(i)] to [starts.(i + 1) - 1] *)
  entries : int array;
  counts : float array;
  norms : float array;
  outs : string list array;
}

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
  let pairs = Array.of_list pairs in
  let token_ids = Hashtbl.create 4096 in
  let intern tok =
    match Hashtbl.find_opt token_ids tok with
    | Some i -> i
    | None ->
        let i = Hashtbl.length token_ids in
        Hashtbl.add token_ids tok i;
        i
  in
  let norms = Array.make (Array.length pairs) 0.0 in
  let rows =
    Array.mapi
      (fun e ((fv : Featrep.fv), _) ->
        let bag = bag_of fv.input in
        norms.(e) <- norm_of bag;
        (* flat per-entry rows keep the build's transient heap small *)
        let row = Array.of_seq (Hashtbl.to_seq bag) in
        (Array.map (fun (tok, _) -> intern tok) row, Array.map snd row))
      pairs
  in
  let ntok = Hashtbl.length token_ids in
  let starts = Array.make (ntok + 1) 0 in
  Array.iter
    (fun (ids, _) ->
      Array.iter (fun i -> starts.(i + 1) <- starts.(i + 1) + 1) ids)
    rows;
  for i = 1 to ntok do
    starts.(i) <- starts.(i) + starts.(i - 1)
  done;
  let next = Array.sub starts 0 ntok in
  let entries = Array.make starts.(ntok) 0 in
  let counts = Array.make starts.(ntok) 0.0 in
  Array.iteri
    (fun e (ids, cs) ->
      Array.iteri
        (fun k i ->
          entries.(next.(i)) <- e;
          counts.(next.(i)) <- cs.(k);
          next.(i) <- next.(i) + 1)
        ids)
    rows;
  { token_ids; starts; entries; counts; norms; outs = Array.map snd pairs }

let size t = Array.length t.outs
let outputs t = Array.to_list t.outs

let scratch = Domain.DLS.new_key (fun () -> ref [||])

let decode t (fv : Featrep.fv) =
  let n = size t in
  if n = 0 then ([], [||])
  else begin
    let buf = Domain.DLS.get scratch in
    if Array.length !buf < n then buf := Array.make n 0.0;
    let dot = !buf in
    Array.fill dot 0 n 0.0;
    let query = bag_of fv.input in
    Hashtbl.iter
      (fun tok c ->
        match Hashtbl.find_opt t.token_ids tok with
        | Some i ->
            for p = t.starts.(i) to t.starts.(i + 1) - 1 do
              let e = t.entries.(p) in
              dot.(e) <- dot.(e) +. (c *. t.counts.(p))
            done
        | None -> ())
      query;
    let qnorm = norm_of query in
    let best = ref 0 and bs = ref 0.0 in
    for e = 0 to n - 1 do
      let enorm = t.norms.(e) in
      let s =
        if qnorm = 0.0 || enorm = 0.0 then 0.0 else dot.(e) /. (qnorm *. enorm)
      in
      if e = 0 || not (!bs >= s) then begin
        best := e;
        bs := s
      end
    done;
    let out = t.outs.(!best) in
    (out, Array.make (List.length out) !bs)
  end
