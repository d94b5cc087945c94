module A1 = Bigarray.Array1

type buf = (float, Bigarray.float32_elt, Bigarray.c_layout) A1.t

type t = {
  data : buf;
  rows : int;
  cols : int;
  grad : buf;
  is_param : bool;
}

(* Every invariant violation raises a typed decoder-class fault instead
   of a bare assert: an [Assert_failure] from a malformed decode would
   escape stage isolation (and vanish under -noassert), whereas
   [Fault (Tensor_fault _)] degrades the request through the robust
   ladder. *)
let fail op detail =
  raise (Vega_robust.Fault.Fault (Vega_robust.Fault.Tensor_fault { op; detail }))

(* Round a float64 to the nearest float32 (round-to-nearest-even), the
   same conversion a store into [buf] performs. The decode kernels in
   {!Layers} use it to mirror the tensor ops' store points exactly. *)
let round32 v = Int32.float_of_bits (Int32.bits_of_float v)

let buf_make n =
  let b = A1.create Bigarray.Float32 Bigarray.C_layout n in
  A1.fill b 0.0;
  b

let buf_create = buf_make

(* The tape holds backward closures in reverse order: [push_back] conses
   the newest closure onto the front, so the plain [List.iter] in
   [backward] already visits operations last-to-first. Tape state is
   domain-local ([Domain.DLS]), so forward/backward passes in different
   OCaml 5 domains never share or interleave tapes. *)
type tape_state = { mutable ops : (unit -> unit) list; mutable active : bool }

let tape_key = Domain.DLS.new_key (fun () -> { ops = []; active = false })
let tape () = Domain.DLS.get tape_key

let push_back f =
  let tp = tape () in
  if tp.active then tp.ops <- f :: tp.ops

let with_tape f =
  let tp = tape () in
  if tp.active then fail "with_tape" "nested with_tape on the same domain";
  tp.ops <- [];
  tp.active <- true;
  Fun.protect
    ~finally:(fun () ->
      tp.ops <- [];
      tp.active <- false)
    f

let backward t =
  if not (t.rows = 1 && t.cols = 1) then
    fail "backward"
      (Printf.sprintf "gradient seed must be 1x1, got %dx%d" t.rows t.cols);
  A1.set t.grad 0 1.0;
  let tp = tape () in
  List.iter (fun f -> f ()) tp.ops;
  tp.ops <- []

let numel t = t.rows * t.cols

let create rows cols data =
  if Array.length data <> rows * cols then
    fail "create"
      (Printf.sprintf "%d values for a %dx%d tensor" (Array.length data) rows
         cols);
  let d = buf_make (rows * cols) in
  Array.iteri (fun i v -> A1.set d i v) data;
  { data = d; rows; cols; grad = buf_make (rows * cols); is_param = false }

let zeros rows cols =
  { data = buf_make (rows * cols); rows; cols; grad = buf_make (rows * cols);
    is_param = false }

let param rng ?scale rows cols =
  let s = match scale with Some s -> s | None -> 1.0 /. sqrt (float_of_int cols) in
  let d = buf_make (rows * cols) in
  for i = 0 to (rows * cols) - 1 do
    A1.set d i (s *. Vega_util.Rng.gaussian rng)
  done;
  { data = d; rows; cols; grad = buf_make (rows * cols); is_param = true }

let get t i j = A1.get t.data ((i * t.cols) + j)
let set_ t i j v = A1.set t.data ((i * t.cols) + j) v
let get_flat t i = A1.get t.data i
let set_flat_ t i v = A1.set t.data i v
let grad_flat t i = A1.get t.grad i
let zero_grad t = A1.fill t.grad 0.0
let to_array t = Array.init (numel t) (fun i -> A1.get t.data i)
let grad_to_array t = Array.init (numel t) (fun i -> A1.get t.grad i)
let to_float t = A1.get t.data 0
let params_count ps = List.fold_left (fun a p -> a + numel p) 0 ps

let out rows cols = zeros rows cols

(* Numeric discipline, shared with the decode kernels in {!Layers}:
   reads widen float32 exactly to float64, all arithmetic runs in
   float64, and each output element is rounded to float32 exactly once
   per store point (reductions accumulate in a float64 scratch first).
   Any kernel that replays these ops row-by-row therefore reproduces
   them bit-for-bit — see DESIGN.md "Float32 storage". *)

let matmul a b =
  if a.cols <> b.rows then
    fail "matmul"
      (Printf.sprintf "%dx%d * %dx%d" a.rows a.cols b.rows b.cols);
  let m = a.rows and k = a.cols and n = b.cols in
  let c = out m n in
  let ad = a.data and bd = b.data and cd = c.data in
  let acc = Array.make n 0.0 in
  for i = 0 to m - 1 do
    Array.fill acc 0 n 0.0;
    let arow = i * k in
    for p = 0 to k - 1 do
      let av = A1.unsafe_get ad (arow + p) in
      if av <> 0.0 then begin
        let brow = p * n in
        for j = 0 to n - 1 do
          Array.unsafe_set acc j
            (Array.unsafe_get acc j +. (av *. A1.unsafe_get bd (brow + j)))
        done
      end
    done;
    let crow = i * n in
    for j = 0 to n - 1 do
      A1.unsafe_set cd (crow + j) (Array.unsafe_get acc j)
    done
  done;
  push_back (fun () ->
      (* dA = dC * B^T ; dB = A^T * dC *)
      for i = 0 to m - 1 do
        for p = 0 to k - 1 do
          let brow = p * n and crow = i * n in
          let acc = ref 0.0 in
          for j = 0 to n - 1 do
            acc := !acc +. (A1.get c.grad (crow + j) *. A1.get bd (brow + j))
          done;
          A1.set a.grad ((i * k) + p) (A1.get a.grad ((i * k) + p) +. !acc)
        done
      done;
      for p = 0 to k - 1 do
        for j = 0 to n - 1 do
          let acc = ref 0.0 in
          for i = 0 to m - 1 do
            acc := !acc +. (A1.get ad ((i * k) + p) *. A1.get c.grad ((i * n) + j))
          done;
          A1.set b.grad ((p * n) + j) (A1.get b.grad ((p * n) + j) +. !acc)
        done
      done);
  c

let add a b =
  if b.rows = 1 && a.rows > 1 then begin
    if a.cols <> b.cols then
      fail "add"
        (Printf.sprintf "broadcast %dx%d + 1x%d" a.rows a.cols b.cols);
    let c = out a.rows a.cols in
    for i = 0 to a.rows - 1 do
      for j = 0 to a.cols - 1 do
        A1.set c.data ((i * a.cols) + j)
          (A1.get a.data ((i * a.cols) + j) +. A1.get b.data j)
      done
    done;
    push_back (fun () ->
        for i = 0 to a.rows - 1 do
          for j = 0 to a.cols - 1 do
            let g = A1.get c.grad ((i * a.cols) + j) in
            A1.set a.grad ((i * a.cols) + j)
              (A1.get a.grad ((i * a.cols) + j) +. g);
            A1.set b.grad j (A1.get b.grad j +. g)
          done
        done);
    c
  end
  else begin
    if not (a.rows = b.rows && a.cols = b.cols) then
      fail "add"
        (Printf.sprintf "%dx%d + %dx%d" a.rows a.cols b.rows b.cols);
    let n = numel a in
    let c = out a.rows a.cols in
    for i = 0 to n - 1 do
      A1.set c.data i (A1.get a.data i +. A1.get b.data i)
    done;
    push_back (fun () ->
        for i = 0 to n - 1 do
          A1.set a.grad i (A1.get a.grad i +. A1.get c.grad i);
          A1.set b.grad i (A1.get b.grad i +. A1.get c.grad i)
        done);
    c
  end

let scale s a =
  let n = numel a in
  let c = out a.rows a.cols in
  for i = 0 to n - 1 do
    A1.set c.data i (s *. A1.get a.data i)
  done;
  push_back (fun () ->
      for i = 0 to n - 1 do
        A1.set a.grad i (A1.get a.grad i +. (s *. A1.get c.grad i))
      done);
  c

let gelu a =
  (* tanh approximation *)
  let n = numel a in
  let c = out a.rows a.cols in
  let k = sqrt (2.0 /. Float.pi) in
  for i = 0 to n - 1 do
    let x = A1.get a.data i in
    let t = tanh (k *. (x +. (0.044715 *. x *. x *. x))) in
    A1.set c.data i (0.5 *. x *. (1.0 +. t))
  done;
  push_back (fun () ->
      for i = 0 to n - 1 do
        let x = A1.get a.data i in
        let u = k *. (x +. (0.044715 *. x *. x *. x)) in
        let t = tanh u in
        let du = k *. (1.0 +. (3.0 *. 0.044715 *. x *. x)) in
        let d = (0.5 *. (1.0 +. t)) +. (0.5 *. x *. (1.0 -. (t *. t)) *. du) in
        A1.set a.grad i (A1.get a.grad i +. (d *. A1.get c.grad i))
      done);
  c

let sigmoid a =
  let n = numel a in
  let c = out a.rows a.cols in
  for i = 0 to n - 1 do
    A1.set c.data i (1.0 /. (1.0 +. exp (-.(A1.get a.data i))))
  done;
  push_back (fun () ->
      for i = 0 to n - 1 do
        let s = A1.get c.data i in
        A1.set a.grad i (A1.get a.grad i +. (s *. (1.0 -. s) *. A1.get c.grad i))
      done);
  c

let tanh_ a =
  let n = numel a in
  let c = out a.rows a.cols in
  for i = 0 to n - 1 do
    A1.set c.data i (tanh (A1.get a.data i))
  done;
  push_back (fun () ->
      for i = 0 to n - 1 do
        let t = A1.get c.data i in
        A1.set a.grad i (A1.get a.grad i +. ((1.0 -. (t *. t)) *. A1.get c.grad i))
      done);
  c

let mul_elt a b =
  if not (a.rows = b.rows && a.cols = b.cols) then
    fail "mul_elt"
      (Printf.sprintf "%dx%d * %dx%d" a.rows a.cols b.rows b.cols);
  let n = numel a in
  let c = out a.rows a.cols in
  for i = 0 to n - 1 do
    A1.set c.data i (A1.get a.data i *. A1.get b.data i)
  done;
  push_back (fun () ->
      for i = 0 to n - 1 do
        A1.set a.grad i (A1.get a.grad i +. (A1.get b.data i *. A1.get c.grad i));
        A1.set b.grad i (A1.get b.grad i +. (A1.get a.data i *. A1.get c.grad i))
      done);
  c

let one_minus a =
  let n = numel a in
  let c = out a.rows a.cols in
  for i = 0 to n - 1 do
    A1.set c.data i (1.0 -. A1.get a.data i)
  done;
  push_back (fun () ->
      for i = 0 to n - 1 do
        A1.set a.grad i (A1.get a.grad i -. A1.get c.grad i)
      done);
  c

let softmax_rows ?mask a =
  let m = a.rows and n = a.cols in
  let c = out m n in
  let allowed i j = match mask with None -> true | Some f -> f i j in
  for i = 0 to m - 1 do
    let row = i * n in
    let mx = ref neg_infinity in
    for j = 0 to n - 1 do
      if allowed i j then mx := Float.max !mx (A1.get a.data (row + j))
    done;
    (* [sum] accumulates the unrounded float64 [e] while the stored
       numerator is the float32-rounded [e]; the decode kernels
       replicate this exact split *)
    let sum = ref 0.0 in
    for j = 0 to n - 1 do
      if allowed i j then begin
        let e = exp (A1.get a.data (row + j) -. !mx) in
        A1.set c.data (row + j) e;
        sum := !sum +. e
      end
      else A1.set c.data (row + j) 0.0
    done;
    if !sum > 0.0 then
      for j = 0 to n - 1 do
        A1.set c.data (row + j) (A1.get c.data (row + j) /. !sum)
      done
  done;
  push_back (fun () ->
      for i = 0 to m - 1 do
        let row = i * n in
        let dot = ref 0.0 in
        for j = 0 to n - 1 do
          dot := !dot +. (A1.get c.grad (row + j) *. A1.get c.data (row + j))
        done;
        for j = 0 to n - 1 do
          A1.set a.grad (row + j)
            (A1.get a.grad (row + j)
            +. (A1.get c.data (row + j) *. (A1.get c.grad (row + j) -. !dot)))
        done
      done);
  c

let layernorm ~gain ~bias a =
  let m = a.rows and n = a.cols in
  if not (gain.rows = 1 && gain.cols = n && bias.rows = 1 && bias.cols = n)
  then
    fail "layernorm"
      (Printf.sprintf "gain %dx%d / bias %dx%d over %dx%d" gain.rows gain.cols
         bias.rows bias.cols m n);
  let c = out m n in
  let mus = Array.make m 0.0 and sigmas = Array.make m 0.0 in
  let eps = 1e-5 in
  for i = 0 to m - 1 do
    let row = i * n in
    let mu = ref 0.0 in
    for j = 0 to n - 1 do
      mu := !mu +. A1.get a.data (row + j)
    done;
    let mu = !mu /. float_of_int n in
    let var = ref 0.0 in
    for j = 0 to n - 1 do
      let d = A1.get a.data (row + j) -. mu in
      var := !var +. (d *. d)
    done;
    let sigma = sqrt ((!var /. float_of_int n) +. eps) in
    mus.(i) <- mu;
    sigmas.(i) <- sigma;
    for j = 0 to n - 1 do
      A1.set c.data (row + j)
        ((A1.get gain.data j *. ((A1.get a.data (row + j) -. mu) /. sigma))
        +. A1.get bias.data j)
    done
  done;
  push_back (fun () ->
      for i = 0 to m - 1 do
        let row = i * n in
        let mu = mus.(i) and sigma = sigmas.(i) in
        let nf = float_of_int n in
        (* intermediate sums for the layernorm jacobian *)
        let sum_gy = ref 0.0 and sum_gyx = ref 0.0 in
        for j = 0 to n - 1 do
          let gy = A1.get c.grad (row + j) *. A1.get gain.data j in
          let xhat = (A1.get a.data (row + j) -. mu) /. sigma in
          sum_gy := !sum_gy +. gy;
          sum_gyx := !sum_gyx +. (gy *. xhat);
          A1.set gain.grad j
            (A1.get gain.grad j +. (A1.get c.grad (row + j) *. xhat));
          A1.set bias.grad j (A1.get bias.grad j +. A1.get c.grad (row + j))
        done;
        for j = 0 to n - 1 do
          let gy = A1.get c.grad (row + j) *. A1.get gain.data j in
          let xhat = (A1.get a.data (row + j) -. mu) /. sigma in
          let d =
            (gy -. (!sum_gy /. nf) -. (xhat *. !sum_gyx /. nf)) /. sigma
          in
          A1.set a.grad (row + j) (A1.get a.grad (row + j) +. d)
        done
      done);
  c

let transpose a =
  let m = a.rows and n = a.cols in
  let c = out n m in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      A1.set c.data ((j * m) + i) (A1.get a.data ((i * n) + j))
    done
  done;
  push_back (fun () ->
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          A1.set a.grad ((i * n) + j)
            (A1.get a.grad ((i * n) + j) +. A1.get c.grad ((j * m) + i))
        done
      done);
  c

let rows_slice a lo n =
  if not (lo >= 0 && lo + n <= a.rows) then
    fail "rows_slice"
      (Printf.sprintf "rows [%d,%d) of a %dx%d tensor" lo (lo + n) a.rows
         a.cols);
  let c = out n a.cols in
  for i = 0 to (n * a.cols) - 1 do
    A1.set c.data i (A1.get a.data ((lo * a.cols) + i))
  done;
  push_back (fun () ->
      for i = 0 to (n * a.cols) - 1 do
        A1.set a.grad ((lo * a.cols) + i)
          (A1.get a.grad ((lo * a.cols) + i) +. A1.get c.grad i)
      done);
  c

let concat_rows ts =
  match ts with
  | [] -> fail "concat_rows" "empty tensor list"
  | first :: _ ->
      let cols = first.cols in
      let rows = List.fold_left (fun acc t -> acc + t.rows) 0 ts in
      let c = out rows cols in
      let off = ref 0 in
      List.iter
        (fun t ->
          if t.cols <> cols then
            fail "concat_rows"
              (Printf.sprintf "column mismatch: %d vs %d" t.cols cols);
          for i = 0 to numel t - 1 do
            A1.set c.data (!off + i) (A1.get t.data i)
          done;
          off := !off + numel t)
        ts;
      push_back (fun () ->
          let off = ref 0 in
          List.iter
            (fun t ->
              for i = 0 to numel t - 1 do
                A1.set t.grad i (A1.get t.grad i +. A1.get c.grad (!off + i))
              done;
              off := !off + numel t)
            ts);
      c

let embed ~table ids =
  let n = Array.length ids in
  let d = table.cols in
  let c = out n d in
  Array.iteri
    (fun i id ->
      if not (id >= 0 && id < table.rows) then
        fail "embed"
          (Printf.sprintf "token id %d outside vocabulary of %d" id table.rows);
      for j = 0 to d - 1 do
        A1.set c.data ((i * d) + j) (A1.get table.data ((id * d) + j))
      done)
    ids;
  push_back (fun () ->
      Array.iteri
        (fun i id ->
          for j = 0 to d - 1 do
            A1.set table.grad ((id * d) + j)
              (A1.get table.grad ((id * d) + j) +. A1.get c.grad ((i * d) + j))
          done)
        ids);
  c

let add_rows_positional x pos =
  if not (x.rows <= pos.rows && x.cols = pos.cols) then
    fail "add_rows_positional"
      (Printf.sprintf "%dx%d over positional table %dx%d" x.rows x.cols
         pos.rows pos.cols);
  let c = out x.rows x.cols in
  for i = 0 to x.rows - 1 do
    for j = 0 to x.cols - 1 do
      A1.set c.data ((i * x.cols) + j)
        (A1.get x.data ((i * x.cols) + j) +. A1.get pos.data ((i * x.cols) + j))
    done
  done;
  push_back (fun () ->
      for i = 0 to (x.rows * x.cols) - 1 do
        A1.set x.grad i (A1.get x.grad i +. A1.get c.grad i);
        A1.set pos.grad i (A1.get pos.grad i +. A1.get c.grad i)
      done);
  c

let cross_entropy ~logits ~targets =
  let m = logits.rows and n = logits.cols in
  if Array.length targets <> m then
    fail "cross_entropy"
      (Printf.sprintf "%d targets for %d logit rows" (Array.length targets) m);
  let probs = Array.make (m * n) 0.0 in
  let loss = ref 0.0 in
  for i = 0 to m - 1 do
    let row = i * n in
    let mx = ref neg_infinity in
    for j = 0 to n - 1 do
      mx := Float.max !mx (A1.get logits.data (row + j))
    done;
    let sum = ref 0.0 in
    for j = 0 to n - 1 do
      let e = exp (A1.get logits.data (row + j) -. !mx) in
      probs.(row + j) <- e;
      sum := !sum +. e
    done;
    for j = 0 to n - 1 do
      probs.(row + j) <- probs.(row + j) /. !sum
    done;
    let tj = targets.(i) in
    if not (tj >= 0 && tj < n) then
      fail "cross_entropy"
        (Printf.sprintf "target %d outside %d classes" tj n);
    loss := !loss -. log (Float.max 1e-12 probs.(row + tj))
  done;
  let c = out 1 1 in
  A1.set c.data 0 (!loss /. float_of_int m);
  push_back (fun () ->
      let g = A1.get c.grad 0 /. float_of_int m in
      for i = 0 to m - 1 do
        let row = i * n in
        for j = 0 to n - 1 do
          let delta = if j = targets.(i) then 1.0 else 0.0 in
          A1.set logits.grad (row + j)
            (A1.get logits.grad (row + j) +. (g *. (probs.(row + j) -. delta)))
        done
      done);
  c
