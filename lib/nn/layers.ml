module T = Tensor
module A1 = Bigarray.Array1

let fail op detail =
  raise (Vega_robust.Fault.Fault (Vega_robust.Fault.Tensor_fault { op; detail }))

type linear = { w : T.t; b : T.t }

let linear rng ~d_in ~d_out = { w = T.param rng d_in d_out; b = T.param rng ~scale:0.01 1 d_out }
let linear_fwd l x = T.add (T.matmul x l.w) l.b
let linear_params l = [ l.w; l.b ]

type norm = { gain : T.t; bias : T.t }

let norm ~d =
  let gain = T.create 1 d (Array.make d 1.0) in
  let bias = T.create 1 d (Array.make d 0.0) in
  (* layernorm params participate in training despite constant init *)
  ( {
      gain = { gain with T.is_param = true };
      bias = { bias with T.is_param = true };
    }
    : norm )

let norm_fwd n x = T.layernorm ~gain:n.gain ~bias:n.bias x
let norm_params n = [ n.gain; n.bias ]

type attention = {
  heads : int;
  d_head : int;
  wq : linear;
  wk : linear;
  wv : linear;
  wo : linear;
}

let attention rng ~d_model ~heads =
  if d_model mod heads <> 0 then
    fail "attention"
      (Printf.sprintf "d_model %d not divisible by %d heads" d_model heads);
  {
    heads;
    d_head = d_model / heads;
    wq = linear rng ~d_in:d_model ~d_out:d_model;
    wk = linear rng ~d_in:d_model ~d_out:d_model;
    wv = linear rng ~d_in:d_model ~d_out:d_model;
    wo = linear rng ~d_in:d_model ~d_out:d_model;
  }

(* Split head h columns out of a (L x d_model) projection. *)
let head_slice t ~h ~d_head =
  (* implemented as matmul with a constant selector for simplicity would
     be wasteful; instead copy columns via transpose+rows_slice *)
  let tt = T.transpose t in
  let sl = T.rows_slice tt (h * d_head) d_head in
  T.transpose sl

let attention_fwd at ~q_input ~kv_input ~mask =
  let q_all = linear_fwd at.wq q_input in
  let k_all = linear_fwd at.wk kv_input in
  let v_all = linear_fwd at.wv kv_input in
  let outs =
    List.init at.heads (fun h ->
        let q = head_slice q_all ~h ~d_head:at.d_head in
        let k = head_slice k_all ~h ~d_head:at.d_head in
        let v = head_slice v_all ~h ~d_head:at.d_head in
        let scores =
          T.scale (1.0 /. sqrt (float_of_int at.d_head)) (T.matmul q (T.transpose k))
        in
        let weights = T.softmax_rows ?mask scores in
        T.matmul weights v)
  in
  (* concat heads along columns: transpose-concat-transpose *)
  let concat = T.transpose (T.concat_rows (List.map T.transpose outs)) in
  linear_fwd at.wo concat

let attention_params at =
  linear_params at.wq @ linear_params at.wk @ linear_params at.wv
  @ linear_params at.wo

type block = {
  att : attention;
  n1 : norm;
  n2 : norm;
  ff1 : linear;
  ff2 : linear;
}

let encoder_block rng ~d_model ~heads ~d_ff =
  {
    att = attention rng ~d_model ~heads;
    n1 = norm ~d:d_model;
    n2 = norm ~d:d_model;
    ff1 = linear rng ~d_in:d_model ~d_out:d_ff;
    ff2 = linear rng ~d_in:d_ff ~d_out:d_model;
  }

let encoder_fwd b x =
  let a = attention_fwd b.att ~q_input:x ~kv_input:x ~mask:None in
  let x = norm_fwd b.n1 (T.add x a) in
  let ff = linear_fwd b.ff2 (T.gelu (linear_fwd b.ff1 x)) in
  norm_fwd b.n2 (T.add x ff)

let block_params b =
  attention_params b.att @ norm_params b.n1 @ norm_params b.n2
  @ linear_params b.ff1 @ linear_params b.ff2

type dec_block = {
  self_att : attention;
  cross_att : attention;
  dn1 : norm;
  dn2 : norm;
  dn3 : norm;
  dff1 : linear;
  dff2 : linear;
}

let decoder_block rng ~d_model ~heads ~d_ff =
  {
    self_att = attention rng ~d_model ~heads;
    cross_att = attention rng ~d_model ~heads;
    dn1 = norm ~d:d_model;
    dn2 = norm ~d:d_model;
    dn3 = norm ~d:d_model;
    dff1 = linear rng ~d_in:d_model ~d_out:d_ff;
    dff2 = linear rng ~d_in:d_ff ~d_out:d_model;
  }

let decoder_fwd b ~x ~memory =
  let causal i j = j <= i in
  let a = attention_fwd b.self_att ~q_input:x ~kv_input:x ~mask:(Some causal) in
  let x = norm_fwd b.dn1 (T.add x a) in
  let c = attention_fwd b.cross_att ~q_input:x ~kv_input:memory ~mask:None in
  let x = norm_fwd b.dn2 (T.add x c) in
  let ff = linear_fwd b.dff2 (T.gelu (linear_fwd b.dff1 x)) in
  norm_fwd b.dn3 (T.add x ff)

let dec_block_params b =
  attention_params b.self_att @ attention_params b.cross_att @ norm_params b.dn1
  @ norm_params b.dn2 @ norm_params b.dn3 @ linear_params b.dff1
  @ linear_params b.dff2

(* {1 Incremental decode}

   Zero-allocation kernels that advance one request's decode by one
   position over preallocated float32 scratch. Each kernel mirrors the
   tensor ops of {!decoder_fwd} bit-for-bit: the same accumulation
   order, the same zero-skip as {!Tensor.matmul}, and [T.round32] at
   exactly the store points where a tensor op writes into float32
   storage (DESIGN.md "Float32 storage"), so every output row is
   bit-identical to the matching row of a full re-decode. Nothing here
   touches the tape. *)

(* One query row attending over [len] cached key/value rows stored
   contiguously in [keys]/[values] (rows of [heads * d_head] floats).
   Heads are read by column offset, which matches [head_slice]'s column
   copy. Writes the per-head concatenated context, rounded, into [dst]
   (ready for the wo projection); [merged] (length >= d) and [scores]
   (length >= len) are float64 scratch. *)
let attention_core at ~(q : T.buf) ~(keys : T.buf) ~(values : T.buf) ~len
    ~(merged : float array) ~(scores : float array) ~(dst : T.buf) =
  let dh = at.d_head in
  let d = at.heads * dh in
  Array.fill merged 0 d 0.0;
  let s = 1.0 /. sqrt (float_of_int dh) in
  for h = 0 to at.heads - 1 do
    let off = h * dh in
    (* one key row per score, read contiguously; the per-score sum still
       accumulates in ascending-p order with the matmul's zero-skip, so
       each score is bit-identical to the tensor path's *)
    for j = 0 to len - 1 do
      let krow = (j * d) + off in
      let sum = ref 0.0 in
      for p = 0 to dh - 1 do
        let av = A1.unsafe_get q (off + p) in
        if av <> 0.0 then
          sum := !sum +. (av *. A1.unsafe_get keys (krow + p))
      done;
      (* score matmul store, then the scale store *)
      Array.unsafe_set scores j (T.round32 (s *. T.round32 !sum))
    done;
    let mx = ref neg_infinity in
    for j = 0 to len - 1 do
      let sj = Array.unsafe_get scores j in
      if sj > !mx then mx := sj
    done;
    (* softmax: the stored numerator is rounded, the denominator
       accumulates the unrounded float64 exponentials — the exact split
       {!Tensor.softmax_rows} makes *)
    let sum = ref 0.0 in
    for j = 0 to len - 1 do
      let e = exp (Array.unsafe_get scores j -. !mx) in
      Array.unsafe_set scores j (T.round32 e);
      sum := !sum +. e
    done;
    if !sum > 0.0 then
      for j = 0 to len - 1 do
        Array.unsafe_set scores j (T.round32 (Array.unsafe_get scores j /. !sum))
      done;
    for p = 0 to len - 1 do
      let wv = Array.unsafe_get scores p in
      if wv <> 0.0 then begin
        let vrow = (p * d) + off in
        for j = 0 to dh - 1 do
          Array.unsafe_set merged (off + j)
            (Array.unsafe_get merged (off + j)
            +. (wv *. A1.unsafe_get values (vrow + j)))
        done
      end
    done;
    (* the weights-by-values matmul store *)
    for j = 0 to dh - 1 do
      A1.unsafe_set dst (off + j) (T.round32 (Array.unsafe_get merged (off + j)))
    done
  done

let linear_row ?(src_off = 0) ?(dst_off = 0) l ~(src : T.buf) ~(dst : T.buf)
    ~(acc : float array) =
  let w = l.w in
  let k = w.T.rows and n = w.T.cols in
  if Array.length acc < n then
    fail "linear_row"
      (Printf.sprintf "accumulator of %d floats for a row of %d"
         (Array.length acc) n);
  if src_off < 0 || src_off + k > A1.dim src || dst_off < 0
     || dst_off + n > A1.dim dst
  then
    fail "linear_row"
      (Printf.sprintf "row of %d at %d into %d at %d outside %d/%d floats" k
         src_off n dst_off (A1.dim src) (A1.dim dst));
  Array.fill acc 0 n 0.0;
  let wd = w.T.data and bd = l.b.T.data in
  let n4 = n / 4 * 4 in
  for p = 0 to k - 1 do
    let av = A1.unsafe_get src (src_off + p) in
    if av <> 0.0 then begin
      let wrow = p * n in
      (* unrolled by 4: each element's sum is independent, so the
         per-element accumulation order is unchanged *)
      let j = ref 0 in
      while !j < n4 do
        let a0 = !j and w0 = wrow + !j in
        Array.unsafe_set acc a0
          (Array.unsafe_get acc a0 +. (av *. A1.unsafe_get wd w0));
        Array.unsafe_set acc (a0 + 1)
          (Array.unsafe_get acc (a0 + 1) +. (av *. A1.unsafe_get wd (w0 + 1)));
        Array.unsafe_set acc (a0 + 2)
          (Array.unsafe_get acc (a0 + 2) +. (av *. A1.unsafe_get wd (w0 + 2)));
        Array.unsafe_set acc (a0 + 3)
          (Array.unsafe_get acc (a0 + 3) +. (av *. A1.unsafe_get wd (w0 + 3)));
        j := !j + 4
      done;
      while !j < n do
        Array.unsafe_set acc !j
          (Array.unsafe_get acc !j +. (av *. A1.unsafe_get wd (wrow + !j)));
        incr j
      done
    end
  done;
  for j = 0 to n - 1 do
    (* round the matmul result (first store point), add the bias, and
       let the float32 store round again — the same two roundings as
       [linear_fwd], without the store-read-store round trip *)
    A1.unsafe_set dst (dst_off + j)
      (T.round32 (Array.unsafe_get acc j) +. A1.unsafe_get bd j)
  done

type scratch = {
  s_d : int;
  s_dff : int;
  s_q : T.buf;  (* d: query projection *)
  s_a : T.buf;  (* d: merged attention context *)
  s_o : T.buf;  (* d: wo / dff2 outputs *)
  s_x1 : T.buf;  (* d: residual stream *)
  s_x2 : T.buf;
  s_ff : T.buf;  (* d_ff *)
  s_acc : float array;  (* max(d, d_ff) f64 accumulator *)
  s_row : float array;  (* max(d, d_ff) f64 row scratch *)
  s_merged : float array;  (* d *)
  s_scores : float array;  (* attention scratch, >= longest KV run *)
}

let scratch ~d_model ~d_ff ~capacity =
  let dmax = max d_model d_ff in
  {
    s_d = d_model;
    s_dff = d_ff;
    s_q = T.buf_create d_model;
    s_a = T.buf_create d_model;
    s_o = T.buf_create d_model;
    s_x1 = T.buf_create d_model;
    s_x2 = T.buf_create d_model;
    s_ff = T.buf_create d_ff;
    s_acc = Array.make dmax 0.0;
    s_row = Array.make dmax 0.0;
    s_merged = Array.make d_model 0.0;
    s_scores = Array.make (max 1 capacity) 0.0;
  }

type dec_cache = {
  blk : dec_block;
  d : int;
  cap : int;  (* self-attention positions; bounds the memory rows too *)
  self_k : T.buf;  (* cap x d *)
  self_v : T.buf;
  cross_k : T.buf;  (* cross_len x d, preprojected encoder memory *)
  cross_v : T.buf;
  cross_len : int;
  mutable used : int;
}

let dec_cache blk ~capacity ~memory =
  let d = blk.dff1.w.T.rows in
  if memory.T.cols <> d then
    fail "dec_cache"
      (Printf.sprintf "memory width %d, model width %d" memory.T.cols d);
  if memory.T.rows > capacity then
    fail "dec_cache"
      (Printf.sprintf "%d memory rows exceed capacity %d" memory.T.rows
         capacity);
  let rows = memory.T.rows in
  let c =
    {
      blk;
      d;
      cap = capacity;
      self_k = T.buf_create (capacity * d);
      self_v = T.buf_create (capacity * d);
      cross_k = T.buf_create (rows * d);
      cross_v = T.buf_create (rows * d);
      cross_len = rows;
      used = 0;
    }
  in
  (* memory row i projects into row i of the cross K/V run, one row at
     a time: a rows x d accumulator would go straight to the major heap
     at every request *)
  let acc = Array.make d 0.0 in
  for i = 0 to rows - 1 do
    let off = i * d in
    linear_row blk.cross_att.wk ~src:memory.T.data ~src_off:off ~dst:c.cross_k
      ~dst_off:off ~acc;
    linear_row blk.cross_att.wv ~src:memory.T.data ~src_off:off ~dst:c.cross_v
      ~dst_off:off ~acc
  done;
  c

(* Fused residual-add + layernorm over one row: the add rounds once per
   element ([T.add]'s store) and the normalized output rounds once per
   element into [dst] ([T.layernorm]'s store). *)
let add_norm nrm ~(x : T.buf) ~(y : T.buf) ~(dst : T.buf)
    ~(row : float array) ~d =
  let gd = nrm.gain.T.data and bd = nrm.bias.T.data in
  let eps = 1e-5 in
  for j = 0 to d - 1 do
    Array.unsafe_set row j
      (T.round32 (A1.unsafe_get x j +. A1.unsafe_get y j))
  done;
  let mu = ref 0.0 in
  for j = 0 to d - 1 do
    mu := !mu +. Array.unsafe_get row j
  done;
  let mu = !mu /. float_of_int d in
  let var = ref 0.0 in
  for j = 0 to d - 1 do
    let dv = Array.unsafe_get row j -. mu in
    var := !var +. (dv *. dv)
  done;
  let sigma = sqrt ((!var /. float_of_int d) +. eps) in
  for j = 0 to d - 1 do
    A1.unsafe_set dst j
      ((A1.unsafe_get gd j *. ((Array.unsafe_get row j -. mu) /. sigma))
      +. A1.unsafe_get bd j)
  done

let dec_step c scr ~(x : T.buf) ~(out : T.buf) =
  let b = c.blk and d = c.d in
  if scr.s_d <> d then
    fail "dec_step" (Printf.sprintf "scratch width %d, cache width %d" scr.s_d d);
  if c.used >= c.cap then
    fail "dec_step" (Printf.sprintf "KV capacity %d exhausted" c.cap);
  if Array.length scr.s_scores < c.cap then
    fail "dec_step"
      (Printf.sprintf "attention scratch %d for capacity %d"
         (Array.length scr.s_scores) c.cap);
  let acc = scr.s_acc in
  (* self-attention: the new position's key and value project straight
     into the next cache row, then the query attends over the run *)
  let kv = c.used * d in
  linear_row b.self_att.wq ~src:x ~dst:scr.s_q ~acc;
  linear_row b.self_att.wk ~src:x ~dst:c.self_k ~dst_off:kv ~acc;
  linear_row b.self_att.wv ~src:x ~dst:c.self_v ~dst_off:kv ~acc;
  c.used <- c.used + 1;
  attention_core b.self_att ~q:scr.s_q ~keys:c.self_k ~values:c.self_v
    ~len:c.used ~merged:scr.s_merged ~scores:scr.s_scores ~dst:scr.s_a;
  linear_row b.self_att.wo ~src:scr.s_a ~dst:scr.s_o ~acc;
  add_norm b.dn1 ~x ~y:scr.s_o ~dst:scr.s_x1 ~row:scr.s_row ~d;
  (* cross-attention over the preprojected encoder memory *)
  linear_row b.cross_att.wq ~src:scr.s_x1 ~dst:scr.s_q ~acc;
  attention_core b.cross_att ~q:scr.s_q ~keys:c.cross_k ~values:c.cross_v
    ~len:c.cross_len ~merged:scr.s_merged ~scores:scr.s_scores ~dst:scr.s_a;
  linear_row b.cross_att.wo ~src:scr.s_a ~dst:scr.s_o ~acc;
  add_norm b.dn2 ~x:scr.s_x1 ~y:scr.s_o ~dst:scr.s_x2 ~row:scr.s_row ~d;
  (* feed-forward *)
  linear_row b.dff1 ~src:scr.s_x2 ~dst:scr.s_ff ~acc;
  let kg = sqrt (2.0 /. Float.pi) in
  for j = 0 to scr.s_dff - 1 do
    let v = A1.unsafe_get scr.s_ff j in
    let t = tanh (kg *. (v +. (0.044715 *. v *. v *. v))) in
    (* the store rounds: same single store point as [T.gelu] *)
    A1.unsafe_set scr.s_ff j (0.5 *. v *. (1.0 +. t))
  done;
  linear_row b.dff2 ~src:scr.s_ff ~dst:scr.s_o ~acc;
  add_norm b.dn3 ~x:scr.s_x2 ~y:scr.s_o ~dst:out ~row:scr.s_row ~d
