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

(* {1 Batched decode engine}

   Zero-allocation kernels that advance a whole batch of decode rows at
   once over preallocated float32 scratch. Each kernel mirrors the
   tensor ops of {!decoder_fwd} bit-for-bit: the same accumulation
   order, the same zero-skip as {!Tensor.matmul}, and [T.round32] at
   exactly the store points where a tensor op writes into float32
   storage (DESIGN.md "Float32 storage"). [batch_linear] streams each
   weight row past every active request row, but accumulates each
   output row independently, so every per-row result is bit-identical
   to a full re-decode regardless of which other slots are active.
   Nothing here touches the tape. *)

(* One query row attending over [len] cached key/value rows stored
   contiguously in [keys]/[values] starting at flat offset [base] (rows
   of [heads * d_head] floats). Heads are read by column offset, which
   matches [head_slice]'s column copy. Writes the per-head concatenated
   context into [merged] (rounded, ready for the wo projection); uses
   [scores] as scratch (length >= len). *)
let attention_core at ~(q_all : float array) ~(keys : T.buf)
    ~(values : T.buf) ~base ~len ~(merged : float array)
    ~(scores : float array) =
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
      let krow = base + (j * d) + off in
      let sum = ref 0.0 in
      for p = 0 to dh - 1 do
        let av = Array.unsafe_get q_all (off + p) in
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
        let vrow = base + (p * d) + off in
        for j = 0 to dh - 1 do
          Array.unsafe_set merged (off + j)
            (Array.unsafe_get merged (off + j)
            +. (wv *. A1.unsafe_get values (vrow + j)))
        done
      end
    done;
    for j = 0 to dh - 1 do
      Array.unsafe_set merged (off + j)
        (T.round32 (Array.unsafe_get merged (off + j)))
    done
  done

let batch_linear l ~(active : int array) ~(src : T.buf) ~(dst : T.buf)
    ~(acc : float array) =
  let w = l.w in
  let k = w.T.rows and n = w.T.cols in
  let na = Array.length active in
  if Array.length acc < na * n then
    fail "batch_linear"
      (Printf.sprintf "accumulator of %d floats for %d rows of %d"
         (Array.length acc) na n);
  Array.fill acc 0 (na * n) 0.0;
  let wd = w.T.data and bd = l.b.T.data in
  let n4 = n / 4 * 4 in
  for p = 0 to k - 1 do
    let wrow = p * n in
    for ai = 0 to na - 1 do
      let slot = Array.unsafe_get active ai in
      let av = A1.unsafe_get src ((slot * k) + p) in
      if av <> 0.0 then begin
        let abase = ai * n in
        (* unrolled by 4: each element's sum is independent, so the
           per-element accumulation order is unchanged *)
        let j = ref 0 in
        while !j < n4 do
          let a0 = abase + !j and w0 = wrow + !j in
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
          Array.unsafe_set acc (abase + !j)
            (Array.unsafe_get acc (abase + !j)
            +. (av *. A1.unsafe_get wd (wrow + !j)));
          incr j
        done
      end
    done
  done;
  for ai = 0 to na - 1 do
    let slot = Array.unsafe_get active ai in
    let abase = ai * n and dbase = slot * n in
    for j = 0 to n - 1 do
      (* round the matmul result (first store point), add the bias, and
         let the float32 store round again — the same two roundings as
         [linear_fwd], without the store-read-store round trip *)
      A1.unsafe_set dst (dbase + j)
        (T.round32 (Array.unsafe_get acc (abase + j)) +. A1.unsafe_get bd j)
    done
  done

type batch_scratch = {
  s_d : int;
  s_dff : int;
  s_q : T.buf;  (* slots x d: q/k/v projections *)
  s_k : T.buf;
  s_v : T.buf;
  s_a : T.buf;  (* slots x d: merged attention context *)
  s_o : T.buf;  (* slots x d: wo / dff2 outputs *)
  s_x1 : T.buf;  (* slots x d residual stream *)
  s_x2 : T.buf;
  s_ff : T.buf;  (* slots x d_ff *)
  s_acc : float array;  (* slots x max(d, d_ff) f64 accumulator *)
  s_row : float array;  (* max(d, d_ff) f64 row scratch *)
  s_qrow : float array;  (* d *)
  s_merged : float array;  (* d *)
  s_scores : float array;  (* attention scratch, >= longest KV run *)
}

let batch_scratch ~slots ~d_model ~d_ff ~capacity =
  let dmax = max d_model d_ff in
  {
    s_d = d_model;
    s_dff = d_ff;
    s_q = T.buf_create (slots * d_model);
    s_k = T.buf_create (slots * d_model);
    s_v = T.buf_create (slots * d_model);
    s_a = T.buf_create (slots * d_model);
    s_o = T.buf_create (slots * d_model);
    s_x1 = T.buf_create (slots * d_model);
    s_x2 = T.buf_create (slots * d_model);
    s_ff = T.buf_create (slots * d_ff);
    s_acc = Array.make (slots * dmax) 0.0;
    s_row = Array.make dmax 0.0;
    s_qrow = Array.make d_model 0.0;
    s_merged = Array.make d_model 0.0;
    s_scores = Array.make (max 1 capacity) 0.0;
  }

type batch_dec_cache = {
  bblk : dec_block;
  bd : int;
  bslots : int;
  bcap : int;  (* self-attention positions per slot *)
  bcross_cap : int;  (* encoder memory rows per slot *)
  bself_k : T.buf;  (* slots x cap x d *)
  bself_v : T.buf;
  bcross_k : T.buf;  (* slots x cross_cap x d *)
  bcross_v : T.buf;
  bused : int array;
  bcross_len : int array;
}

let batch_dec_cache blk ~slots ~capacity ~cross_capacity =
  let d = blk.dff1.w.T.rows in
  {
    bblk = blk;
    bd = d;
    bslots = slots;
    bcap = capacity;
    bcross_cap = cross_capacity;
    bself_k = T.buf_create (slots * capacity * d);
    bself_v = T.buf_create (slots * capacity * d);
    bcross_k = T.buf_create (slots * cross_capacity * d);
    bcross_v = T.buf_create (slots * cross_capacity * d);
    bused = Array.make slots 0;
    bcross_len = Array.make slots 0;
  }

let batch_slot_load c ~slot ~memory =
  let d = c.bd in
  if not (slot >= 0 && slot < c.bslots) then
    fail "batch_slot_load"
      (Printf.sprintf "slot %d outside 0..%d" slot (c.bslots - 1));
  if memory.T.cols <> d then
    fail "batch_slot_load"
      (Printf.sprintf "memory width %d, model width %d" memory.T.cols d);
  if memory.T.rows > c.bcross_cap then
    fail "batch_slot_load"
      (Printf.sprintf "%d memory rows exceed slot capacity %d" memory.T.rows
         c.bcross_cap);
  let rows = memory.T.rows in
  c.bused.(slot) <- 0;
  c.bcross_len.(slot) <- rows;
  (* memory row i projects into row i of the slot's cross K/V region,
     one row at a time: a rows x d accumulator would go straight to the
     major heap at every join *)
  let region buf = A1.sub buf (slot * c.bcross_cap * d) (rows * d) in
  let kdst = region c.bcross_k and vdst = region c.bcross_v in
  let active = [| 0 |] and acc = Array.make d 0.0 in
  for i = 0 to rows - 1 do
    active.(0) <- i;
    batch_linear c.bblk.cross_att.wk ~active ~src:memory.T.data ~dst:kdst ~acc;
    batch_linear c.bblk.cross_att.wv ~active ~src:memory.T.data ~dst:vdst ~acc
  done

(* Fused residual-add + layernorm over the active rows: the add rounds
   once per element ([T.add]'s store) and the normalized output rounds
   once per element into [dst] ([T.layernorm]'s store). *)
let add_norm nrm ~(active : int array) ~(x : T.buf) ~(y : T.buf)
    ~(dst : T.buf) ~(row : float array) ~d =
  let gd = nrm.gain.T.data and bd = nrm.bias.T.data in
  let na = Array.length active in
  let eps = 1e-5 in
  for ai = 0 to na - 1 do
    let base = Array.unsafe_get active ai * d in
    for j = 0 to d - 1 do
      Array.unsafe_set row j
        (T.round32 (A1.unsafe_get x (base + j) +. A1.unsafe_get y (base + j)))
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
      A1.unsafe_set dst (base + j)
        ((A1.unsafe_get gd j *. ((Array.unsafe_get row j -. mu) /. sigma))
        +. A1.unsafe_get bd j)
    done
  done

let batch_dec_step c scr ~(active : int array) ~(x : T.buf) ~(out : T.buf) =
  let b = c.bblk and d = c.bd in
  if scr.s_d <> d then
    fail "batch_dec_step"
      (Printf.sprintf "scratch width %d, cache width %d" scr.s_d d);
  let na = Array.length active in
  (* self-attention: project q/k/v for all active rows, append each k/v
     to its slot's cache, then attend per row over that slot only *)
  batch_linear b.self_att.wq ~active ~src:x ~dst:scr.s_q ~acc:scr.s_acc;
  batch_linear b.self_att.wk ~active ~src:x ~dst:scr.s_k ~acc:scr.s_acc;
  batch_linear b.self_att.wv ~active ~src:x ~dst:scr.s_v ~acc:scr.s_acc;
  for ai = 0 to na - 1 do
    let slot = active.(ai) in
    if c.bused.(slot) >= c.bcap then
      fail "batch_dec_step"
        (Printf.sprintf "slot %d KV capacity %d exhausted" slot c.bcap);
    let kv = ((slot * c.bcap) + c.bused.(slot)) * d and sbase = slot * d in
    for j = 0 to d - 1 do
      A1.unsafe_set c.bself_k (kv + j) (A1.unsafe_get scr.s_k (sbase + j));
      A1.unsafe_set c.bself_v (kv + j) (A1.unsafe_get scr.s_v (sbase + j))
    done;
    c.bused.(slot) <- c.bused.(slot) + 1;
    for j = 0 to d - 1 do
      Array.unsafe_set scr.s_qrow j (A1.unsafe_get scr.s_q (sbase + j))
    done;
    attention_core b.self_att ~q_all:scr.s_qrow ~keys:c.bself_k
      ~values:c.bself_v ~base:(slot * c.bcap * d) ~len:c.bused.(slot)
      ~merged:scr.s_merged ~scores:scr.s_scores;
    for j = 0 to d - 1 do
      A1.unsafe_set scr.s_a (sbase + j) (Array.unsafe_get scr.s_merged j)
    done
  done;
  batch_linear b.self_att.wo ~active ~src:scr.s_a ~dst:scr.s_o ~acc:scr.s_acc;
  add_norm b.dn1 ~active ~x ~y:scr.s_o ~dst:scr.s_x1 ~row:scr.s_row ~d;
  (* cross-attention over each slot's preprojected encoder memory *)
  batch_linear b.cross_att.wq ~active ~src:scr.s_x1 ~dst:scr.s_q ~acc:scr.s_acc;
  for ai = 0 to na - 1 do
    let slot = active.(ai) in
    let sbase = slot * d in
    for j = 0 to d - 1 do
      Array.unsafe_set scr.s_qrow j (A1.unsafe_get scr.s_q (sbase + j))
    done;
    attention_core b.cross_att ~q_all:scr.s_qrow ~keys:c.bcross_k
      ~values:c.bcross_v ~base:(slot * c.bcross_cap * d)
      ~len:c.bcross_len.(slot) ~merged:scr.s_merged ~scores:scr.s_scores;
    for j = 0 to d - 1 do
      A1.unsafe_set scr.s_a (sbase + j) (Array.unsafe_get scr.s_merged j)
    done
  done;
  batch_linear b.cross_att.wo ~active ~src:scr.s_a ~dst:scr.s_o ~acc:scr.s_acc;
  add_norm b.dn2 ~active ~x:scr.s_x1 ~y:scr.s_o ~dst:scr.s_x2 ~row:scr.s_row ~d;
  (* feed-forward *)
  batch_linear b.dff1 ~active ~src:scr.s_x2 ~dst:scr.s_ff ~acc:scr.s_acc;
  let d_ff = scr.s_dff in
  let kg = sqrt (2.0 /. Float.pi) in
  for ai = 0 to na - 1 do
    let base = Array.unsafe_get active ai * d_ff in
    for j = 0 to d_ff - 1 do
      let v = A1.unsafe_get scr.s_ff (base + j) in
      let t = tanh (kg *. (v +. (0.044715 *. v *. v *. v))) in
      (* the store rounds: same single store point as [T.gelu] *)
      A1.unsafe_set scr.s_ff (base + j) (0.5 *. v *. (1.0 +. t))
    done
  done;
  batch_linear b.dff2 ~active ~src:scr.s_ff ~dst:scr.s_o ~acc:scr.s_acc;
  add_norm b.dn3 ~active ~x:scr.s_x2 ~y:scr.s_o ~dst:out ~row:scr.s_row ~d
