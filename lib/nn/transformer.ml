module T = Tensor
module A1 = Bigarray.Array1

let fail op detail =
  raise (Vega_robust.Fault.Fault (Vega_robust.Fault.Tensor_fault { op; detail }))

type config = {
  d_model : int;
  heads : int;
  d_ff : int;
  n_layers : int;
  max_len : int;
  vocab_size : int;
}

let default_config ~vocab_size =
  { d_model = 48; heads = 4; d_ff = 96; n_layers = 2; max_len = 96; vocab_size }

type t = {
  cfg : config;
  tok_emb : T.t;
  pos_emb : T.t;
  enc : Layers.block array;
  dec : Layers.dec_block array;
  out_proj : Layers.linear;
}

let create ?(seed = 7) cfg =
  let rng = Vega_util.Rng.create seed in
  {
    cfg;
    tok_emb = T.param rng ~scale:0.05 cfg.vocab_size cfg.d_model;
    pos_emb = T.param rng ~scale:0.05 cfg.max_len cfg.d_model;
    enc =
      Array.init cfg.n_layers (fun _ ->
          Layers.encoder_block rng ~d_model:cfg.d_model ~heads:cfg.heads
            ~d_ff:cfg.d_ff);
    dec =
      Array.init cfg.n_layers (fun _ ->
          Layers.decoder_block rng ~d_model:cfg.d_model ~heads:cfg.heads
            ~d_ff:cfg.d_ff);
    out_proj = Layers.linear rng ~d_in:cfg.d_model ~d_out:cfg.vocab_size;
  }

let config t = t.cfg

let params t =
  [ t.tok_emb; t.pos_emb ]
  @ List.concat_map Layers.block_params (Array.to_list t.enc)
  @ List.concat_map Layers.dec_block_params (Array.to_list t.dec)
  @ Layers.linear_params t.out_proj

let n_params t = T.params_count (params t)

let clip arr max_len = if Array.length arr > max_len then Array.sub arr 0 max_len else arr

let encode t src =
  let src = clip src t.cfg.max_len in
  let x = T.embed ~table:t.tok_emb src in
  let x = T.add_rows_positional x t.pos_emb in
  Array.fold_left (fun x b -> Layers.encoder_fwd b x) x t.enc

let decode_logits t ~memory dec_ids =
  let x = T.embed ~table:t.tok_emb dec_ids in
  let x = T.add_rows_positional x t.pos_emb in
  let x =
    Array.fold_left (fun x b -> Layers.decoder_fwd b ~x ~memory) x t.dec
  in
  Layers.linear_fwd t.out_proj x

let loss t ~src ~tgt =
  let tgt = clip tgt (t.cfg.max_len - 2) in
  let memory = encode t src in
  (* decoder input: [E2D] tgt...; targets: tgt... [EOS] *)
  let dec_in = Array.append [| Vocab.e2d |] tgt in
  let targets = Array.append tgt [| Vocab.eos |] in
  let logits = decode_logits t ~memory dec_in in
  T.cross_entropy ~logits ~targets

let train_step t opt batch =
  (* single counted pass: sum and count in one walk of the batch *)
  let total = ref 0.0 and count = ref 0 in
  List.iter
    (fun (src, tgt) ->
      T.with_tape (fun () ->
          let l = loss t ~src ~tgt in
          total := !total +. T.to_float l;
          incr count;
          T.backward l))
    batch;
  Adam.step opt;
  !total /. float_of_int (max 1 !count)

(* Softmax + argmax over the [n] logits at [off] in [logits], read in
   place: nothing the size of the vocabulary is allocated per token. The
   denominator sums the exponentials in ascending order, and strict [>]
   keeps the first of tied maxima. *)
let greedy (logits : T.buf) ~off ~n =
  let mx = ref neg_infinity in
  for j = 0 to n - 1 do
    mx := Float.max !mx (A1.get logits (off + j))
  done;
  let sum = ref 0.0 and best = ref 0 and best_e = ref 0.0 in
  for j = 0 to n - 1 do
    let e = exp (A1.get logits (off + j) -. !mx) in
    sum := !sum +. e;
    if j = 0 || e > !best_e then begin
      best := j;
      best_e := e
    end
  done;
  (!best, !best_e /. !sum)

(* {1 Batched decode engine}

   A fixed number of request slots share one set of preallocated
   buffers; [batch_step] advances every fed slot one position through
   all decoder layers at once over {!Layers.batch_dec_step}'s
   zero-allocation kernels. Per-slot rows are accumulated independently
   in the tensor path's order, so each slot's logits are bit-identical
   to the last row of [decode_logits] over its prefix whatever the
   batch composition — joins and leaves between steps never perturb
   other requests (DESIGN.md "Continuous batched decode"). This engine
   is the only incremental decoder; [generate] runs it with one slot. *)

type batch = {
  bm : t;
  bslots : int;
  bcaches : Layers.batch_dec_cache array;  (* one per decoder layer *)
  bscr : Layers.batch_scratch;
  bx : T.buf;  (* slots x d_model ping *)
  by : T.buf;  (* slots x d_model pong *)
  blogits : T.buf;  (* slots x vocab *)
  blacc : float array;  (* slots x vocab f64 accumulator *)
  bpos : int array;
  bfree : bool array;
}

let new_batch t ~slots =
  if slots < 1 then fail "new_batch" (Printf.sprintf "%d slots" slots);
  let cfg = t.cfg in
  {
    bm = t;
    bslots = slots;
    bcaches =
      Array.map
        (fun b ->
          Layers.batch_dec_cache b ~slots ~capacity:cfg.max_len
            ~cross_capacity:cfg.max_len)
        t.dec;
    bscr =
      Layers.batch_scratch ~slots ~d_model:cfg.d_model ~d_ff:cfg.d_ff
        ~capacity:cfg.max_len;
    bx = T.buf_create (slots * cfg.d_model);
    by = T.buf_create (slots * cfg.d_model);
    blogits = T.buf_create (slots * cfg.vocab_size);
    blacc = Array.make (slots * cfg.vocab_size) 0.0;
    bpos = Array.make slots 0;
    bfree = Array.make slots true;
  }

let batch_free_slot b =
  let free = ref (-1) in
  for s = b.bslots - 1 downto 0 do
    if b.bfree.(s) then free := s
  done;
  !free

(* claim a free slot for an already-encoded source *)
let batch_load b ~memory =
  let slot = batch_free_slot b in
  if slot < 0 then fail "batch_join" "no free request slot";
  Array.iter (fun c -> Layers.batch_slot_load c ~slot ~memory) b.bcaches;
  b.bpos.(slot) <- 0;
  b.bfree.(slot) <- false;
  slot

(* the encoder runs off-tape: outside [with_tape] the tensor ops record
   nothing, so encoding is safe from server worker domains *)
let batch_join b ~src = batch_load b ~memory:(encode b.bm src)

let batch_leave b ~slot =
  if not (slot >= 0 && slot < b.bslots) then
    fail "batch_leave" (Printf.sprintf "slot %d outside 0..%d" slot (b.bslots - 1));
  b.bfree.(slot) <- true

let batch_step b feeds =
  let t = b.bm in
  let d = t.cfg.d_model in
  let n = Array.length feeds in
  if n = 0 then fail "batch_step" "empty feed set";
  let feeds = Array.copy feeds in
  Array.sort (fun (a, _) (b, _) -> compare a b) feeds;
  let active = Array.make n 0 in
  Array.iteri
    (fun i (slot, id) ->
      if not (slot >= 0 && slot < b.bslots) || b.bfree.(slot) then
        fail "batch_step" (Printf.sprintf "feed for unjoined slot %d" slot);
      if not (id >= 0 && id < t.cfg.vocab_size) then
        fail "batch_step"
          (Printf.sprintf "token id %d outside vocabulary of %d" id
             t.cfg.vocab_size);
      if b.bpos.(slot) >= t.cfg.max_len then
        fail "batch_step"
          (Printf.sprintf "slot %d decode past max_len %d" slot t.cfg.max_len);
      active.(i) <- slot;
      let base = slot * d in
      for j = 0 to d - 1 do
        (* the float32 store rounds the f64 sum — add_rows_positional's
           store point *)
        A1.set b.bx (base + j)
          (T.get_flat t.tok_emb ((id * d) + j)
          +. T.get_flat t.pos_emb ((b.bpos.(slot) * d) + j))
      done;
      b.bpos.(slot) <- b.bpos.(slot) + 1)
    feeds;
  let cur = ref b.bx and nxt = ref b.by in
  Array.iter
    (fun c ->
      Layers.batch_dec_step c b.bscr ~active ~x:!cur ~out:!nxt;
      let tmp = !cur in
      cur := !nxt;
      nxt := tmp)
    b.bcaches;
  Layers.batch_linear t.out_proj ~active ~src:!cur ~dst:b.blogits ~acc:b.blacc

let batch_logits b ~slot =
  let v = b.bm.cfg.vocab_size in
  Array.init v (fun j -> A1.get b.blogits ((slot * v) + j))

(* greedy pick over [slot]'s logits from the last step, read in place *)
let batch_greedy b ~slot =
  let v = b.bm.cfg.vocab_size in
  greedy b.blogits ~off:(slot * v) ~n:v

(* Continuous batched greedy decode over a fixed source list: requests
   are admitted in input order as slots free up, so results are
   deterministic (and, per-request, bit-identical to
   [generate_uncached]). *)
let generate_batch t ?(slots = 4) ~srcs ?(max_out = 48) () =
  let max_out = min max_out (t.cfg.max_len - 2) in
  let n = Array.length srcs in
  let outs = Array.make n [] and probs = Array.make n [] in
  if max_out <= 0 || n = 0 then
    Array.init n (fun _ -> ([||], [||]))
  else begin
    let b = new_batch t ~slots in
    let nout = Array.make n 0 in
    let cur = Array.make n Vocab.e2d in
    let slot_req = Array.make b.bslots (-1) in
    let next = ref 0 in
    let active_count = ref 0 in
    let admit () =
      while !next < n && batch_free_slot b >= 0 do
        let slot = batch_join b ~src:srcs.(!next) in
        slot_req.(slot) <- !next;
        incr next;
        incr active_count
      done
    in
    let finish slot =
      slot_req.(slot) <- -1;
      batch_leave b ~slot;
      decr active_count
    in
    admit ();
    while !active_count > 0 do
      let feeds =
        Array.of_list
          (List.filter_map
             (fun slot ->
               let req = slot_req.(slot) in
               if req >= 0 then Some (slot, cur.(req)) else None)
             (List.init b.bslots Fun.id))
      in
      batch_step b feeds;
      Array.iter
        (fun (slot, _) ->
          let req = slot_req.(slot) in
          let best, p = batch_greedy b ~slot in
          if best = Vocab.eos then finish slot
          else begin
            outs.(req) <- best :: outs.(req);
            probs.(req) <- p :: probs.(req);
            cur.(req) <- best;
            nout.(req) <- nout.(req) + 1;
            if nout.(req) >= max_out then finish slot
          end)
        feeds;
      admit ()
    done;
    Array.init n (fun i ->
        ( Array.of_list (List.rev outs.(i)),
          Array.of_list (List.rev probs.(i)) ))
  end

(* {1 Concurrent batcher}

   Coalesces decode calls arriving from concurrent domains (the event
   loop's decode slots, stepped on a [Par.Gang]) into shared
   [batch_step]s. Each caller encodes its own
   source before queueing it, so a malformed source faults its owner
   and never the driver. One caller at a time elects itself driver
   ([bt_driving]), admits queued requests into free slots under the
   lock, releases the lock for the compute step, then applies the
   results and broadcasts. Because per-slot results are
   batch-composition-invariant, the nondeterministic interleaving of
   arrivals never changes any request's output. *)

type breq = {
  q_memory : T.t;
  q_max_out : int;
  mutable q_slot : int;
  mutable q_cur : int;
  mutable q_nout : int;
  mutable q_ids : int list;  (* reversed *)
  mutable q_probs : float list;  (* reversed *)
  mutable q_done : bool;
}

type batcher = {
  bt_model : t;
  bt_eng : batch;
  bt_m : Mutex.t;
  bt_cv : Condition.t;
  bt_pending : breq Queue.t;
  bt_slot_req : breq option array;
  mutable bt_driving : bool;
}

let batcher t ~slots =
  let eng = new_batch t ~slots in
  {
    bt_model = t;
    bt_eng = eng;
    bt_m = Mutex.create ();
    bt_cv = Condition.create ();
    bt_pending = Queue.create ();
    bt_slot_req = Array.make eng.bslots None;
    bt_driving = false;
  }

let batcher_slots bt = bt.bt_eng.bslots

(* one engine step; called with [bt_m] held and [bt_driving] set,
   returns with the lock held *)
let drive bt =
  let eng = bt.bt_eng in
  (* admit in arrival order while slots are free *)
  let continue_admit = ref true in
  while !continue_admit && not (Queue.is_empty bt.bt_pending) do
    if batch_free_slot eng < 0 then continue_admit := false
    else begin
      let q = Queue.pop bt.bt_pending in
      let slot = batch_load eng ~memory:q.q_memory in
      q.q_slot <- slot;
      bt.bt_slot_req.(slot) <- Some q
    end
  done;
  let feeds = ref [] in
  Array.iteri
    (fun slot req ->
      match req with
      | Some q when not q.q_done -> feeds := (slot, q.q_cur) :: !feeds
      | _ -> ())
    bt.bt_slot_req;
  let feeds = Array.of_list !feeds in
  if Array.length feeds > 0 then begin
    Mutex.unlock bt.bt_m;
    let result =
      try
        batch_step eng feeds;
        Ok (Array.map (fun (slot, _) -> (slot, batch_greedy eng ~slot)) feeds)
      with e -> Error e
    in
    Mutex.lock bt.bt_m;
    match result with
    | Error e -> raise e
    | Ok picks ->
        Array.iter
          (fun (slot, (best, p)) ->
            match bt.bt_slot_req.(slot) with
            | None -> ()
            | Some q ->
                let finish () =
                  q.q_done <- true;
                  bt.bt_slot_req.(slot) <- None;
                  batch_leave eng ~slot
                in
                if best = Vocab.eos then finish ()
                else begin
                  q.q_ids <- best :: q.q_ids;
                  q.q_probs <- p :: q.q_probs;
                  q.q_cur <- best;
                  q.q_nout <- q.q_nout + 1;
                  if q.q_nout >= q.q_max_out then finish ()
                end)
          picks
  end

let batcher_decode bt ~src ~max_out =
  let max_out = min max_out (bt.bt_model.cfg.max_len - 2) in
  let r =
    {
      q_memory = encode bt.bt_model src;
      q_max_out = max_out;
      q_slot = -1;
      q_cur = Vocab.e2d;
      q_nout = 0;
      q_ids = [];
      q_probs = [];
      q_done = max_out <= 0;
    }
  in
  if not r.q_done then begin
    Mutex.lock bt.bt_m;
    Queue.add r bt.bt_pending;
    (try
       while not r.q_done do
         if bt.bt_driving then Condition.wait bt.bt_cv bt.bt_m
         else begin
           bt.bt_driving <- true;
           Fun.protect
             ~finally:(fun () ->
               bt.bt_driving <- false;
               Condition.broadcast bt.bt_cv)
             (fun () -> drive bt)
         end
       done
     with e ->
       Mutex.unlock bt.bt_m;
       raise e);
    Mutex.unlock bt.bt_m
  end;
  (Array.of_list (List.rev r.q_ids), Array.of_list (List.rev r.q_probs))

let generate t ~src ?(max_out = 48) ?batch () =
  match batch with
  | Some bt ->
      if not (bt.bt_model == t) then
        fail "generate" "batcher belongs to a different model";
      batcher_decode bt ~src ~max_out
  | None -> (generate_batch t ~slots:1 ~srcs:[| src |] ~max_out ()).(0)

let generate_uncached t ~src ?(max_out = 48) () =
  let max_out = min max_out (t.cfg.max_len - 2) in
  T.with_tape (fun () ->
      let memory = encode t src in
      let out = ref [] and probs = ref [] in
      let n_out = ref 0 in
      let continue_ = ref true in
      while !continue_ && !n_out < max_out do
        let dec_in = Array.of_list (Vocab.e2d :: List.rev !out) in
        let logits = decode_logits t ~memory dec_in in
        let n = logits.T.cols in
        let best, p =
          greedy logits.T.data ~off:((logits.T.rows - 1) * n) ~n
        in
        if best = Vocab.eos then continue_ := false
        else begin
          out := best :: !out;
          probs := p :: !probs;
          incr n_out
        end
      done;
      (Array.of_list (List.rev !out), Array.of_list (List.rev !probs)))
