(* The repository benchmark: one process runs one workload and prints
   every metric by name, then one JSON line.

     bench.exe --workload port|serve-cold|serve-hot|model --seed N
               --seconds S --trace 0|1 [--ops N]
     bench.exe --write-expected

   The workload, the layer each stresses and the percentile behind
   [tail_ms] are described in perfbench/README.md. [--ops] caps the
   measured operations per pass (the exact-count self-test uses it).
   [--write-expected] re-pins perfbench/expected/*.tsv from the current
   program.

   Every pass runs whole rounds: a round is one seeded permutation of
   the workload's fixed function set, so every run measures the same
   multiset of work and the seed changes only the order. *)

module V = Vega
module S = Vega_serve
module Sh = Vega_shard
module Sock = Vega_serve.Sock
module Proto = Vega_serve.Proto

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let work_dir = "_perfbench"
let expected_dir = Filename.concat "perfbench" "expected"

let median sorted =
  let n = Array.length sorted in
  if n = 0 then nan
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Sample buffers: unboxed float arrays, grown by doubling, so the
   client's own bookkeeping allocates (almost) nothing per operation. *)

module Samples = struct
  type t = { mutable v : float array; mutable tag : int array; mutable n : int }

  let create cap = { v = Array.make cap 0.0; tag = Array.make cap 0; n = 0 }

  let add s ?(tag = 0) x =
    if s.n = Array.length s.v then begin
      let cap = (2 * s.n) + 16 in
      let v = Array.make cap 0.0 and t = Array.make cap 0 in
      Array.blit s.v 0 v 0 s.n;
      Array.blit s.tag 0 t 0 s.n;
      s.v <- v;
      s.tag <- t
    end;
    s.v.(s.n) <- x;
    s.tag.(s.n) <- tag;
    s.n <- s.n + 1

  let sorted_values s =
    let a = Array.sub s.v 0 s.n in
    Array.sort Float.compare a;
    a

  (* One value per tag (function): the mean of that tag's samples.
     Percentiles over these do not depend on how many rounds ran, and a
     mean averages over the host's fast and slow spells where a median of
     a few samples would jump between them. *)
  let per_tag_means s =
    let by = Hashtbl.create 64 in
    for i = 0 to s.n - 1 do
      let sum, k = Option.value ~default:(0.0, 0) (Hashtbl.find_opt by s.tag.(i)) in
      Hashtbl.replace by s.tag.(i) (sum +. s.v.(i), k + 1)
    done;
    let a =
      Array.of_seq
        (Seq.map (fun (sum, k) -> sum /. float_of_int k) (Hashtbl.to_seq_values by))
    in
    Array.sort Float.compare a;
    a
end

(* Harrell-Davis estimate of quantile [q] of a sorted sample: every
   order statistic weighted by a Beta(q(n+1), (1-q)(n+1)) mass. Function
   latencies cluster by function size, and a plain order statistic
   jumps across a gap between clusters when one function is a little
   slower; this estimate moves by a fraction of the gap instead. *)
let log_gamma x =
  (* Lanczos, g = 7 *)
  let c =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
       771.32342877765313; -176.61502916214059; 12.507343278686905;
       -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]
  in
  let x = x -. 1.0 in
  let a = ref c.(0) in
  for i = 1 to 8 do
    a := !a +. (c.(i) /. (x +. float_of_int i))
  done;
  let t = x +. 7.5 in
  (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

(* regularized incomplete beta I_x(a, b), continued fraction (Lentz) *)
let beta_cdf a b x =
  let cf a b x =
    let tiny = 1e-300 in
    let c = ref 1.0 and d = ref (1.0 -. ((a +. b) *. x /. (a +. 1.0))) in
    if Float.abs !d < tiny then d := tiny;
    d := 1.0 /. !d;
    let h = ref !d and m = ref 1 and fin = ref false in
    while (not !fin) && !m < 100_000 do
      let mf = float_of_int !m in
      let step num =
        d := 1.0 +. (num *. !d);
        if Float.abs !d < tiny then d := tiny;
        c := 1.0 +. (num /. !c);
        if Float.abs !c < tiny then c := tiny;
        d := 1.0 /. !d;
        !d *. !c
      in
      let even = mf *. (b -. mf) *. x /. ((a +. (2.0 *. mf) -. 1.0) *. (a +. (2.0 *. mf))) in
      h := !h *. step even;
      let odd =
        -.(a +. mf) *. (a +. b +. mf) *. x /. ((a +. (2.0 *. mf)) *. (a +. (2.0 *. mf) +. 1.0))
      in
      let del = step odd in
      h := !h *. del;
      if Float.abs (del -. 1.0) < 1e-14 then fin := true;
      incr m
    done;
    !h
  in
  if x <= 0.0 then 0.0
  else if x >= 1.0 then 1.0
  else
    let front =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x)
        +. (b *. log (1.0 -. x)))
    in
    if x < (a +. 1.0) /. (a +. b +. 2.0) then front *. cf a b x /. a
    else 1.0 -. (front *. cf b a (1.0 -. x) /. b)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else if n = 1 then sorted.(0)
  else begin
    let nf = float_of_int n in
    let a = q *. (nf +. 1.0) and b = (1.0 -. q) *. (nf +. 1.0) in
    let acc = ref 0.0 and prev = ref 0.0 in
    for i = 1 to n do
      let cdf = beta_cdf a b (float_of_int i /. nf) in
      acc := !acc +. ((cdf -. !prev) *. sorted.(i - 1));
      prev := cdf
    done;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* Host-speed probe. On a shared virtual machine the same code runs up
   to a third slower for tens of seconds at a time, so whole runs drift
   with the host. A fixed probe, run between operations at most every
   [every] seconds, samples the host's speed through the measured phase;
   the timing metrics are scaled to a host on which the probe takes
   [nominal] seconds. The probe allocates nothing, so it does not move
   the program's garbage collector, and it mixes what the program does:
   string compares, a tree walk and a floating-point chain. Each sample
   times a second, warm run of the probe, so what the program left in
   the caches does not change the reading. *)

module SMap = Map.Make (String)

module Probe = struct
  let nominal = 0.0022
  let every = 0.2
  let keys = Array.init 3000 (fun i -> Printf.sprintf "key-%05d-%d" (i * 7919 mod 3000) i)
  let tree = Array.fold_left (fun m k -> SMap.add k (String.length k) m) SMap.empty keys
  let scratch = Array.make (Array.length keys) ""
  let fl = Float.Array.init 20000 (fun i -> float_of_int (i mod 97) *. 0.01)
  let sink = ref 0
  let samples = Samples.create 1024  (* measured phase *)
  let setup_samples = Samples.create 64
  let last = ref neg_infinity

  (* Shell sort in place: Array.sort would allocate *)
  let sort a =
    let n = Array.length a in
    let gap = ref (n / 2) in
    while !gap > 0 do
      for i = !gap to n - 1 do
        let x = a.(i) in
        let j = ref i in
        while !j >= !gap && String.compare a.(!j - !gap) x > 0 do
          a.(!j) <- a.(!j - !gap);
          j := !j - !gap
        done;
        a.(!j) <- x
      done;
      gap := !gap / 2
    done

  let run () =
    Array.blit keys 0 scratch 0 (Array.length keys);
    sort scratch;
    let acc = ref 0 in
    for i = 0 to Array.length keys - 1 do
      acc := !acc + SMap.find keys.(i) tree
    done;
    let f = ref 0.0 in
    for r = 1 to 10 do
      for i = 1 to Float.Array.length fl - 1 do
        f := !f +. (Float.Array.get fl i *. Float.Array.get fl (i - 1) *. float_of_int r)
      done
    done;
    sink := !sink + !acc + int_of_float !f

  let take buf =
    run ();
    let t0 = now () in
    run ();
    let t1 = now () in
    Samples.add buf (t1 -. t0);
    last := t1

  (* between operations, outside every timed interval and span *)
  let sample () = if now () -. !last >= every then take samples

  (* around each set-up, which runs no operations to sample between *)
  let burst () =
    for _ = 1 to 5 do
      take setup_samples
    done

  let mean buf =
    let n = buf.Samples.n in
    if n = 0 then nominal
    else Array.fold_left ( +. ) 0.0 (Array.sub buf.Samples.v 0 n) /. float_of_int n

  (* how fast the host ran relative to the nominal host: < 1 when slower *)
  let speed buf = nominal /. mean buf
end

(* ------------------------------------------------------------------ *)
(* Tracing: spans recorded by the benchmark's own wrappers around each
   layer's public functions. Per-domain stores (no lock on the record
   path); span ids are global so a daemon-side span can name the
   client-side request span as its parent. *)

module Trace = struct
  let layers =
    [|
      "op"; "client.connect"; "client.first_line"; "client.read";
      "proto.decode"; "decode"; "generate"; "lint"; "absint"; "regression";
      "router.route"; "cache.get";
    |]

  let l_op = 0
  let l_connect = 1
  let l_first_line = 2
  let l_read = 3
  let l_proto = 4
  let l_decode = 5
  let l_generate = 6
  let l_lint = 7
  let l_absint = 8
  let l_regression = 9
  let l_route = 10
  let l_cache = 11
  let enabled = Atomic.make false
  let next_id = Atomic.make 0

  (* the request in flight and its client-side span: one connection at
     a time, so the daemon's decode spans belong to exactly this one *)
  let cur_req = Atomic.make (-1)
  let remote_parent = Atomic.make (-1)

  type store = {
    mutable n : int;
    mutable id : int array;
    mutable parent : int array;
    mutable req : int array;
    mutable layer : int array;
    mutable t0 : float array;
    mutable t1 : float array;
    mutable cur : int;  (* innermost open span of this domain *)
  }

  let stores = ref []
  let stores_lock = Mutex.create ()

  let key =
    Domain.DLS.new_key (fun () ->
        let s =
          { n = 0; id = [||]; parent = [||]; req = [||]; layer = [||];
            t0 = [||]; t1 = [||]; cur = -1 }
        in
        Mutex.protect stores_lock (fun () -> stores := s :: !stores);
        s)

  let grow s =
    let cap = (2 * s.n) + 1024 in
    let gi a = let b = Array.make cap 0 in Array.blit a 0 b 0 s.n; b in
    let gf a = let b = Array.make cap 0.0 in Array.blit a 0 b 0 s.n; b in
    s.id <- gi s.id;
    s.parent <- gi s.parent;
    s.req <- gi s.req;
    s.layer <- gi s.layer;
    s.t0 <- gf s.t0;
    s.t1 <- gf s.t1

  let push s ~id ~layer ~t0 ~t1 =
    if s.n = Array.length s.id then grow s;
    let i = s.n in
    s.id.(i) <- id;
    s.parent.(i) <- (if s.cur >= 0 then s.cur else Atomic.get remote_parent);
    s.req.(i) <- Atomic.get cur_req;
    s.layer.(i) <- layer;
    s.t0.(i) <- t0;
    s.t1.(i) <- t1;
    s.n <- i + 1

  (* a span whose interval the caller measured itself *)
  let record layer ~t0 ~t1 =
    if Atomic.get enabled then
      push (Domain.DLS.get key) ~id:(Atomic.fetch_and_add next_id 1) ~layer ~t0
        ~t1

  (* A [shared] span is the client's request span: spans recorded in
     other domains meanwhile take it as their parent. *)
  let span ?(shared = false) layer f =
    if not (Atomic.get enabled) then f ()
    else begin
      let s = Domain.DLS.get key in
      let id = Atomic.fetch_and_add next_id 1 in
      if shared then Atomic.set remote_parent id;
      let outer = s.cur in
      let t0 = now () in
      (* children opened by [f] see this span as their parent *)
      s.cur <- id;
      Fun.protect f ~finally:(fun () ->
          s.cur <- outer;
          if shared then Atomic.set remote_parent (-1);
          push s ~id ~layer ~t0 ~t1:(now ()))
    end

  let request ~req f =
    Atomic.set cur_req req;
    span ~shared:true l_op f

  type span_row = {
    sp_id : int;
    sp_parent : int;
    sp_req : int;
    sp_layer : int;
    sp_t0 : float;
    sp_t1 : float;
  }

  (* call only while no other domain records *)
  let collect () =
    Mutex.protect stores_lock (fun () ->
        List.concat_map
          (fun s ->
            List.init s.n (fun i ->
                {
                  sp_id = s.id.(i);
                  sp_parent = s.parent.(i);
                  sp_req = s.req.(i);
                  sp_layer = s.layer.(i);
                  sp_t0 = s.t0.(i);
                  sp_t1 = s.t1.(i);
                }))
          !stores)

  (* Per-layer span count, total busy time, self time (duration minus
     the union of its children's intervals) and sorted durations. *)
  type layer_stats = {
    ls_count : int;
    ls_busy : float;
    ls_self : float;
    ls_durs : float array;
  }

  let analyse rows =
    let children = Hashtbl.create 1024 in
    List.iter
      (fun r ->
        if r.sp_parent >= 0 then
          Hashtbl.replace children r.sp_parent
            ((r.sp_t0, r.sp_t1)
            :: Option.value ~default:[] (Hashtbl.find_opt children r.sp_parent)))
      rows;
    let covered r =
      match Hashtbl.find_opt children r.sp_id with
      | None -> 0.0
      | Some ivs ->
          let ivs =
            List.sort compare
              (List.map
                 (fun (a, b) -> (Float.max a r.sp_t0, Float.min b r.sp_t1))
                 ivs)
          in
          fst
            (List.fold_left
               (fun (tot, e) (a, b) ->
                 if b <= e then (tot, e) else (tot +. (b -. Float.max a e), b))
               (0.0, neg_infinity) ivs)
    in
    Array.mapi
      (fun li _ ->
        let mine = List.filter (fun r -> r.sp_layer = li) rows in
        let durs = Array.of_list (List.map (fun r -> r.sp_t1 -. r.sp_t0) mine) in
        Array.sort Float.compare durs;
        {
          ls_count = Array.length durs;
          ls_busy = Array.fold_left ( +. ) 0.0 durs;
          ls_self =
            List.fold_left
              (fun acc r -> acc +. Float.max 0.0 (r.sp_t1 -. r.sp_t0 -. covered r))
              0.0 mine;
          ls_durs = durs;
        })
      layers
end

(* ------------------------------------------------------------------ *)
(* Pinned expected outputs *)

let md5 s = Digest.to_hex (Digest.string s)

let read_tsv name =
  let path = Filename.concat expected_dir name in
  let tbl = Hashtbl.create 256 in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            (match String.split_on_char '\t' line with
            | target :: fname :: rest when target <> "" && target.[0] <> '#' ->
                Hashtbl.replace tbl (target, fname) rest
            | _ -> ());
            go ()
      in
      go ());
  tbl

(* ------------------------------------------------------------------ *)
(* Set-up *)

type fn = {
  f_target : Vega_target.Profile.t;
  f_bundle : V.Pipeline.bundle;
  f_name : string;
}

(* The held-out functions in registry, then bundle, order: 62 + 71 + 56. *)
let held_out_fns (prep : V.Pipeline.prepared) =
  List.concat_map
    (fun (p : Vega_target.Profile.t) ->
      List.filter_map
        (fun (b : V.Pipeline.bundle) ->
          let spec = b.V.Pipeline.spec in
          if spec.Vega_corpus.Spec.applies p then
            Some { f_target = p; f_bundle = b; f_name = spec.Vega_corpus.Spec.fname }
          else None)
        prep.V.Pipeline.bundles)
    Vega_target.Registry.held_out

(* Every [stride]-th function of each target, in bundle order: a fixed
   sample that keeps each target's share. *)
let strided stride fns =
  let seen = Hashtbl.create 4 in
  List.filter
    (fun f ->
      let k = Option.value ~default:0 (Hashtbl.find_opt seen f.f_target.name) in
      Hashtbl.replace seen f.f_target.name (k + 1);
      k mod stride = 0)
    fns

let retrieval_config =
  {
    V.Pipeline.default_config with
    train_cfg = { V.Codebe.tiny_train_config with epochs = 0 };
  }

(* the model is seeded and untrained: default dimensions, epochs = 0 *)
let model_config =
  {
    V.Pipeline.default_config with
    train_cfg = { V.Codebe.default_train_config with epochs = 0 };
  }

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir =
  let k = ref 0 in
  fun root tag ->
    incr k;
    let d = Filename.concat root (Printf.sprintf "%s-%d" tag !k) in
    Unix.mkdir d 0o755;
    d

(* ------------------------------------------------------------------ *)
(* Measurement state of one pass *)

type phase = {
  lat : Samples.t;  (* seconds per operation, tagged by function *)
  first : Samples.t;  (* seconds to the first statement or frame *)
  mutable ops : int;
  mutable failed : int;
  mutable busy : float;  (* summed operation seconds *)
  counts : (string, float) Hashtbl.t;  (* per-layer counters *)
  mutable failures : string list;  (* first few, for the log *)
}

let new_phase cap =
  {
    lat = Samples.create cap;
    first = Samples.create cap;
    ops = 0;
    failed = 0;
    busy = 0.0;
    counts = Hashtbl.create 16;
    failures = [];
  }

let count ph k = Option.value ~default:0.0 (Hashtbl.find_opt ph.counts k)
let bump ph k v = Hashtbl.replace ph.counts k (count ph k +. v)

let fail ph what =
  ph.failed <- ph.failed + 1;
  if List.length ph.failures < 5 then ph.failures <- what :: ph.failures

let finish_op ph ~tag ~t0 ~first ~t1 =
  Samples.add ph.lat ~tag (t1 -. t0);
  Samples.add ph.first ~tag (first -. t0);
  ph.ops <- ph.ops + 1;
  ph.busy <- ph.busy +. (t1 -. t0)

(* The end-to-end run is one untraced pass. The trace run pairs it with
   a traced pass, and the two alternate operation by operation
   (serve-cold: server by server), so host drift hits both alike and
   their difference is the tracing overhead. *)
type passes = { untraced : phase; traced : phase option }

let with_tracing f =
  Atomic.set Trace.enabled true;
  Fun.protect ~finally:(fun () -> Atomic.set Trace.enabled false) f

let each passes f =
  f passes.untraced;
  Option.iter (fun t -> with_tracing (fun () -> f t)) passes.traced

type gc_delta = { minor_words : float; promoted_words : float; major : int }

(* Run rounds until [seconds] have passed or [ops] operations per pass
   are done. The first round always completes, so every function has a
   sample; after it, no operation starts past the deadline, so the whole
   window is measured. [round ~more] runs operations while [more ()]. *)
let run_rounds passes ~seconds ~ops ~round =
  let g0 = Gc.quick_stat () in
  let deadline = now () +. seconds in
  let first = ref true in
  let more () = passes.untraced.ops < ops && (!first || now () < deadline) in
  round ~more;
  first := false;
  while more () do
    round ~more
  done;
  let g1 = Gc.quick_stat () in
  {
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ------------------------------------------------------------------ *)
(* Decoder wrapper: the closure handed to Generate / Server. It records
   a span only while tracing, so one closure serves both passes. *)

let decode_tokens = Atomic.make 0

let with_decode_span (dec : V.Generate.decoder) : V.Generate.decoder =
 fun fv ->
  if not (Atomic.get Trace.enabled) then dec fv
  else
    Trace.span Trace.l_decode (fun () ->
        let ((toks, _) as r) = dec fv in
        ignore (Atomic.fetch_and_add decode_tokens (List.length toks));
        r)

(* ------------------------------------------------------------------ *)
(* Workloads *)

type setup_times = (string * float) list  (* per-layer metric -> seconds *)

type workload = {
  w_name : string;
  w_tail_q : float;  (* percentile behind tail_ms *)
  w_per_function : bool;  (* percentiles over per-function means *)
  w_setup : unit -> setup_times * (unit -> unit);
      (* builds the state the passes use; returns its teardown *)
  w_run : passes -> seconds:float -> ops:int -> rng:Random.State.t -> gc_delta;
  w_replay : (rng:Random.State.t -> ops:int -> unit) option;
      (* traced in-process replay after the trace run *)
}

let base_setup cfg =
  let prep, t_prep = timed (fun () -> V.Pipeline.prepare ()) in
  let t, t_train = timed (fun () -> V.Pipeline.train cfg prep) in
  (prep, t, [ ("prepare.busy_ms", t_prep); ("train.busy_ms", t_train) ])

(* A mutable slot for the state the last set-up built. *)
let slot () = ref None
let get r = match !r with Some x -> x | None -> failwith "benchmark state not set up"

(* Rounds of [n] keyed operations: each round is a seeded permutation
   of the keys, and each operation runs once per pass. *)
let permuted_rounds passes ~seconds ~ops ~rng ~n one =
  let order = Array.init n Fun.id in
  run_rounds passes ~seconds ~ops ~round:(fun ~more ->
      shuffle rng order;
      let k = ref 0 in
      while !k < n && more () do
        each passes (fun ph -> one ph order.(!k));
        Probe.sample ();
        incr k
      done)

(* ---- port: generate + lint + absint verify + pass@1, offline ---- *)

type port_state = {
  ps_t : V.Pipeline.t;
  ps_fns : fn array;
  ps_ref : (string, Vega_eval.Regression.case_artifacts list) Hashtbl.t;
  ps_tab : (string, Vega_analysis.Symtab.t) Hashtbl.t;
  ps_expected : (string * string, string list) Hashtbl.t;
}

let port_workload () =
  let st = slot () in
  let setup () =
    let prep, t, times = base_setup retrieval_config in
    let vfs = prep.V.Pipeline.corpus.Vega_corpus.Corpus.vfs in
    let ps_ref = Hashtbl.create 4 and ps_tab = Hashtbl.create 4 in
    let (), t_ref =
      timed (fun () ->
          List.iter
            (fun (p : Vega_target.Profile.t) ->
              Hashtbl.replace ps_ref p.name
                (Vega_eval.Regression.reference_artifacts vfs p ());
              Hashtbl.replace ps_tab p.name (Vega_analysis.Lint.symtab vfs p))
            Vega_target.Registry.held_out)
    in
    st :=
      Some
        {
          ps_t = t;
          ps_fns = Array.of_list (strided 6 (held_out_fns prep));
          ps_ref;
          ps_tab;
          ps_expected = read_tsv "retrieval.tsv";
        };
    (times @ [ ("regression.reference_ms", t_ref) ], fun () -> ())
  in
  let run passes ~seconds ~ops ~rng =
    let s = get st in
    let prep = s.ps_t.V.Pipeline.prep in
    let vfs = prep.V.Pipeline.corpus.Vega_corpus.Corpus.vfs in
    let decoder = with_decode_span (V.Pipeline.retrieval_decoder s.ps_t) in
    let one ph i =
      let f = s.ps_fns.(i) in
      let p = f.f_target and b = f.f_bundle in
      let t0 = now () in
      let first = ref nan in
      let on_stmt _ = if Float.is_nan !first then first := now () in
      Trace.request ~req:ph.lat.Samples.n (fun () ->
          let gf =
            Trace.span Trace.l_generate (fun () ->
                V.Generate.run ~on_stmt prep.V.Pipeline.ctx b.V.Pipeline.tpl
                  b.V.Pipeline.analysis b.V.Pipeline.hints ~target:p.name ~decoder)
          in
          let diags =
            Trace.span Trace.l_lint (fun () ->
                Vega_analysis.Lint.lint_generated (Hashtbl.find s.ps_tab p.name)
                  b.V.Pipeline.tpl gf)
          in
          let source = V.Generate.source_of gf in
          let sem_diags =
            Trace.span Trace.l_absint (fun () ->
                Vega_absint.Verify.verify_source
                  ?reference:(Vega_corpus.Corpus.reference_inlined b.V.Pipeline.spec p)
                  ~fname:f.f_name source)
          in
          let pass =
            Trace.span Trace.l_regression (fun () ->
                match Vega_srclang.Parser.parse_function_opt source with
                | Error _ -> false
                | Ok func ->
                    Vega_eval.Regression.pass1 vfs p
                      ~reference:(Hashtbl.find s.ps_ref p.name) ~fname:f.f_name
                      ~replacement:(Some func) ()
                    = Ok ())
          in
          finish_op ph ~tag:i ~t0 ~first:!first ~t1:(now ());
          bump ph "generate.calls" 1.0;
          bump ph "generate.stmts" (float_of_int (List.length gf.V.Generate.gf_stmts));
          bump ph "lint.diags" (float_of_int (List.length diags));
          bump ph "absint.sem_errors"
            (float_of_int (Vega_absint.Verify.sem_errors sem_diags));
          if pass then bump ph "regression.pass" 1.0;
          match Hashtbl.find_opt s.ps_expected (p.name, f.f_name) with
          | Some [ digest; want_pass; _ ] ->
              if md5 source <> digest then
                fail ph (Printf.sprintf "%s/%s: source differs" p.name f.f_name)
              else if (if pass then "1" else "0") <> want_pass then
                fail ph (Printf.sprintf "%s/%s: pass@1 verdict differs" p.name f.f_name)
          | _ -> fail ph (Printf.sprintf "%s/%s: nothing pinned" p.name f.f_name))
    in
    permuted_rounds passes ~seconds ~ops ~rng ~n:(Array.length s.ps_fns) one
  in
  {
    w_name = "port";
    w_tail_q = 0.65;
    w_per_function = true;
    w_setup = setup;
    w_run = run;
    w_replay = None;
  }

(* ---- model: generation through the untrained transformer ---- *)

type model_state = {
  ms_t : V.Pipeline.t;
  ms_fns : fn array;
  ms_expected : (string * string, string list) Hashtbl.t;
}

(* The decoded token ids of one function, as pinned in model.tsv. *)
let record_ids vocab ids toks =
  List.iter
    (fun tok ->
      Buffer.add_string ids (string_of_int (Vega_nn.Vocab.id vocab tok));
      Buffer.add_char ids ' ')
    toks;
  Buffer.add_char ids '\n'

let model_workload () =
  let st = slot () in
  let setup () =
    let prep, t, times = base_setup model_config in
    st :=
      Some
        {
          ms_t = t;
          ms_fns = Array.of_list (strided 6 (held_out_fns prep));
          ms_expected = read_tsv "model.tsv";
        };
    (times, fun () -> ())
  in
  let run passes ~seconds ~ops ~rng =
    let s = get st in
    let prep = s.ms_t.V.Pipeline.prep in
    let vocab = V.Codebe.vocab s.ms_t.V.Pipeline.codebe in
    let ids = Buffer.create 4096 in
    let model = V.Pipeline.model_decoder s.ms_t in
    let decoder =
      with_decode_span (fun fv ->
          let ((toks, _) as r) = model fv in
          record_ids vocab ids toks;
          r)
    in
    let one ph i =
      let f = s.ms_fns.(i) in
      let b = f.f_bundle in
      Buffer.clear ids;
      let t0 = now () in
      let first = ref nan in
      let on_stmt _ = if Float.is_nan !first then first := now () in
      Trace.request ~req:ph.lat.Samples.n (fun () ->
          let gf =
            Trace.span Trace.l_generate (fun () ->
                V.Generate.run ~on_stmt prep.V.Pipeline.ctx b.V.Pipeline.tpl
                  b.V.Pipeline.analysis b.V.Pipeline.hints
                  ~target:f.f_target.name ~decoder)
          in
          finish_op ph ~tag:i ~t0 ~first:!first ~t1:(now ());
          bump ph "generate.calls" 1.0;
          bump ph "generate.stmts" (float_of_int (List.length gf.V.Generate.gf_stmts));
          match Hashtbl.find_opt s.ms_expected (f.f_target.name, f.f_name) with
          | Some (digest :: _) ->
              if md5 (Buffer.contents ids) <> digest then
                fail ph
                  (Printf.sprintf "%s/%s: decoded token ids differ"
                     f.f_target.name f.f_name)
          | _ ->
              fail ph (Printf.sprintf "%s/%s: nothing pinned" f.f_target.name f.f_name))
    in
    permuted_rounds passes ~seconds ~ops ~rng ~n:(Array.length s.ms_fns) one
  in
  {
    w_name = "model";
    w_tail_q = 0.65;
    w_per_function = true;
    w_setup = setup;
    w_run = run;
    w_replay = None;
  }

(* ---- Sock client, composed from the client primitives ---- *)

(* One request line, one reply line (what [Sock.request] does), with
   the connect / first-line / decode boundaries visible to the trace. *)
let client_request ~socket line =
  let t_call = now () in
  Sock.with_conn ~socket (fun fd _ ->
      let t_conn = now () in
      Trace.record Trace.l_connect ~t0:t_call ~t1:t_conn;
      Sock.write_line fd line;
      let t_sent = now () in
      match Sock.read_bounded_line fd with
      | `Eof -> Error "connection closed without a reply"
      | `Oversize _ -> Error "oversize reply"
      | `Line reply ->
          Trace.record Trace.l_first_line ~t0:t_sent ~t1:(now ());
          (match
             Trace.span Trace.l_proto (fun () -> Proto.decode_reply reply)
           with
          | Proto.Decoded r -> Ok r
          | Proto.Version_skew _ | Proto.Malformed -> Error "unparseable reply"))

(* A framed stream (what [Sock.stream] does): statement frames in index
   order, then the final verdict. [on_first] fires at the first frame. *)
let client_stream ~socket line ~on_first =
  let t_call = now () in
  Sock.with_conn ~socket (fun fd _ ->
      let t_conn = now () in
      Trace.record Trace.l_connect ~t0:t_call ~t1:t_conn;
      Sock.write_line fd line;
      let t_sent = now () in
      let rec go index =
        let t_read = now () in
        match Sock.read_bounded_line fd with
        | `Eof -> Error "stream closed before the final frame"
        | `Oversize _ -> Error "oversize frame"
        | `Line frame -> (
            let t_got = now () in
            if index = 0 then begin
              on_first t_got;
              Trace.record Trace.l_first_line ~t0:t_sent ~t1:t_got
            end
            else Trace.record Trace.l_read ~t0:t_read ~t1:t_got;
            match Trace.span Trace.l_proto (fun () -> Proto.decode_frame frame) with
            | Proto.Decoded (Proto.Ffinal reply) -> Ok reply
            | Proto.Decoded (Proto.Fstmt { f_index; _ }) ->
                if f_index <> index then Error "statement frame out of order"
                else go (index + 1)
            | Proto.Version_skew _ | Proto.Malformed -> Error "unparseable frame")
      in
      go 0)

(* a transport fault is a failed operation, not a crashed benchmark *)
let guarded f =
  try f () with
  | (Unix.Unix_error _ | Sock.Timeout _) as e -> Error (Printexc.to_string e)

let check_done ph ~expected ~target ~fname = function
  | Ok (Proto.Done { r_source; _ }) -> (
      match Hashtbl.find_opt expected (target, fname) with
      | Some (digest :: _) when md5 r_source = digest -> ()
      | Some _ -> fail ph (Printf.sprintf "%s/%s: source differs" target fname)
      | None -> fail ph (Printf.sprintf "%s/%s: nothing pinned" target fname))
  | Ok (Proto.Rejected r) ->
      fail ph (Printf.sprintf "%s/%s: rejected (%s)" target fname (Proto.reject_label r))
  | Ok (Proto.Failed m) -> fail ph (Printf.sprintf "%s/%s: failed (%s)" target fname m)
  | Error m -> fail ph (Printf.sprintf "%s/%s: %s" target fname m)

let req_of ~target fname =
  { Proto.rq_client = "perfbench"; rq_target = target; rq_fname = fname;
    rq_deadline_ms = None }

(* ---- serve-cold: Sock stream -> Evloop -> durable Server ---- *)

type cold_state = {
  cs_t : V.Pipeline.t;
  cs_by_target : (Vega_target.Profile.t * string array) array;
  cs_expected : (string * string, string list) Hashtbl.t;
}

let cold_workload ~root () =
  let st = slot () in
  let setup () =
    let prep, t, times = base_setup retrieval_config in
    let fns = held_out_fns prep in
    st :=
      Some
        {
          cs_t = t;
          cs_by_target =
            Array.of_list
              (List.map
                 (fun (p : Vega_target.Profile.t) ->
                   ( p,
                     Array.of_list
                       (List.filter_map
                          (fun f -> if f.f_target.name = p.name then Some f.f_name else None)
                          fns) ))
                 Vega_target.Registry.held_out);
          cs_expected = read_tsv "retrieval.tsv";
        };
    (times, fun () -> ())
  in
  let run passes ~seconds ~ops ~rng =
    let s = get st in
    let decoder = with_decode_span (V.Pipeline.retrieval_decoder s.cs_t) in
    (* One fresh durable server per target: every request is that
       server's first generation of the function. [order] indexes the
       target's functions; requests are encoded before timing starts.
       Requests go out while [more ()]; returns how many went out. *)
    let serve_target ph ti order ~more =
      let p, fnames = s.cs_by_target.(ti) in
      let target = p.Vega_target.Profile.name in
      let n = Array.length order in
      let dir = fresh_dir root "cold" in
      let run_dir = Filename.concat dir "run" in
      let config =
        {
          S.Server.default_config with
          S.Server.domains = 1;
          queue_cap = n;
          (* one request per function per server: the bucket never runs dry *)
          client_burst = float_of_int n;
          client_rate = 0.0;
        }
      in
      let srv =
        match S.Server.create ~config ~run_dir s.cs_t ~target ~decoder with
        | Ok srv -> srv
        | Error e -> failwith e
      in
      let socket = Filename.concat dir "s.sock" in
      let h =
        S.Evloop.start
          ~cfg:{ S.Evloop.default_config with S.Evloop.ev_slots = 1 }
          srv ~path:socket
      in
      let ticks0 = (S.Evloop.stats (S.Evloop.engine h)).S.Evloop.ev_ticks in
      let lines =
        Array.map
          (fun k ->
            Proto.encode_command (Proto.Cstream (req_of ~target fnames.(k))))
          order
      in
      let sent = ref 0 in
      while !sent < n && more () do
        let j = !sent in
        incr sent;
        let k = order.(j) in
        let first = ref nan in
        let t0 = now () in
        let res =
          Trace.request ~req:ph.lat.Samples.n (fun () ->
              guarded (fun () ->
                  client_stream ~socket lines.(j) ~on_first:(fun t -> first := t)))
        in
        let t1 = now () in
        finish_op ph ~tag:((ti * 1000) + k) ~t0
          ~first:(if Float.is_nan !first then t1 else !first) ~t1;
        check_done ph ~expected:s.cs_expected ~target ~fname:fnames.(k) res;
        Probe.sample ()
      done;
      S.Evloop.stop h;
      let es = S.Evloop.stats (S.Evloop.engine h) in
      bump ph "evloop.ticks" (float_of_int (es.S.Evloop.ev_ticks - ticks0));
      bump ph "evloop.shed"
        (float_of_int
           (es.S.Evloop.ev_shed_slow + es.S.Evloop.ev_idle_closed
          + es.S.Evloop.ev_dropped));
      let hs = S.Server.health srv in
      bump ph "journal.records" (float_of_int hs.S.Health.h_journal_records);
      bump ph "server.accepted" (float_of_int hs.S.Health.h_accepted);
      bump ph "server.rejected" (float_of_int hs.S.Health.h_rejected);
      bump ph "server.completed" (float_of_int hs.S.Health.h_completed);
      bump ph "journal.bytes"
        (float_of_int
           (try (Unix.stat (V.Pipeline.journal_path run_dir)).Unix.st_size
            with Unix.Unix_error _ -> 0));
      rm_rf dir;
      (* the next server starts on a clean heap, as a fresh daemon would,
         so the garbage of earlier servers neither slows it nor raises
         the peak heap by chance of GC timing *)
      Gc.full_major ();
      !sent
    in
    let targets = Array.init (Array.length s.cs_by_target) Fun.id in
    run_rounds passes ~seconds ~ops ~round:(fun ~more ->
        shuffle rng targets;
        Array.iter
          (fun ti ->
            if more () then begin
              let n = Array.length (snd s.cs_by_target.(ti)) in
              let order = Array.init n Fun.id in
              shuffle rng order;
              let sent = serve_target passes.untraced ti order ~more in
              (* the traced pass repeats exactly the requests the untraced
                 pass sent *)
              Option.iter
                (fun t ->
                  with_tracing (fun () ->
                      ignore
                        (serve_target t ti (Array.sub order 0 sent) ~more:(fun () -> true))))
                passes.traced
            end)
          targets)
  in
  {
    w_name = "serve-cold";
    w_tail_q = 0.90;
    w_per_function = true;
    w_setup = setup;
    w_run = run;
    w_replay = None;
  }

(* ---- serve-hot: Sock request -> Rsock -> Router -> Cache hit ---- *)

type hot_target = {
  ht_name : string;
  ht_router : Sh.Router.t;
  ht_cache : Sh.Cache.t;
  ht_listener : Sh.Rsock.listener;
  ht_socket : string;
}

type hot_state = {
  hs_targets : hot_target array;
  hs_keys : (int * string) array;  (* (target index, fname) *)
  hs_lines : string array;  (* pre-encoded request per key *)
  hs_expected : (string * string, string list) Hashtbl.t;
}

let hot_workload ~root () =
  let st = slot () in
  let setup () =
    let prep, t, times = base_setup retrieval_config in
    let vfs = prep.V.Pipeline.corpus.Vega_corpus.Corpus.vfs in
    let decoder = V.Pipeline.retrieval_decoder t in
    let keys = strided 6 (held_out_fns prep) in
    let dir = fresh_dir root "hot" in
    let hs_targets =
      Array.of_list
        (List.mapi
           (fun i (p : Vega_target.Profile.t) ->
             let target = p.name in
             let n =
               List.length (List.filter (fun f -> f.f_target.name = target) keys)
             in
             let fingerprint = V.Pipeline.fingerprint t ~target in
             let desc_hash = Sh.Cache.desc_hash_of_vfs vfs ~target in
             let srv =
               match
                 S.Server.create
                   ~config:
                     {
                       S.Server.default_config with
                       S.Server.domains = 1;
                       queue_cap = n;
                       client_burst = float_of_int n;
                       client_rate = 0.0;
                     }
                   t ~target ~decoder
               with
               | Ok srv -> srv
               | Error e -> failwith e
             in
             let cache =
               Sh.Cache.create ~dir:(Filename.concat dir ("cache-" ^ target))
                 ~fingerprint ~desc_hash ()
             in
             let router =
               match
                 Sh.Router.create ~cache ~fingerprint ~desc_hash
                   [ Sh.Router.of_server ~name:(target ^ "-0") srv ]
               with
               | Ok r -> r
               | Error e -> failwith e
             in
             let socket = Filename.concat dir (Printf.sprintf "r%d.sock" i) in
             { ht_name = target; ht_router = router; ht_cache = cache;
               ht_listener = Sh.Rsock.start router ~path:socket;
               ht_socket = socket })
           Vega_target.Registry.held_out)
    in
    let tindex name =
      let rec go i = if hs_targets.(i).ht_name = name then i else go (i + 1) in
      go 0
    in
    let hs_keys =
      Array.of_list (List.map (fun f -> (tindex f.f_target.name, f.f_name)) keys)
    in
    (* warm: the first request of each key generates on the shard and
       the router stores the clean reply in the cache *)
    let (), t_warm =
      timed (fun () ->
          Array.iter
            (fun (ti, fname) ->
              let ht = hs_targets.(ti) in
              match Sh.Router.route ht.ht_router (req_of ~target:ht.ht_name fname) with
              | Proto.Done _ -> ()
              | _ -> failwith (Printf.sprintf "warming %s/%s failed" ht.ht_name fname))
            hs_keys)
    in
    st :=
      Some
        {
          hs_targets;
          hs_keys;
          hs_lines =
            Array.map
              (fun (ti, fname) ->
                Proto.encode_command
                  (Proto.Creq (req_of ~target:hs_targets.(ti).ht_name fname)))
              hs_keys;
          hs_expected = read_tsv "retrieval.tsv";
        };
    let teardown () =
      Array.iter
        (fun ht ->
          Sh.Rsock.stop ht.ht_listener;
          Sh.Router.drain ht.ht_router)
        hs_targets;
      rm_rf dir
    in
    (times @ [ ("cache.warm_ms", t_warm) ], teardown)
  in
  let run passes ~seconds ~ops ~rng =
    let s = get st in
    let one ph i =
      let ti, fname = s.hs_keys.(i) in
      let ht = s.hs_targets.(ti) in
      (* router and cache counters are read around traced requests only,
         outside the timed interval *)
      let before =
        if Atomic.get Trace.enabled then
          Some (Sh.Router.counters ht.ht_router, Sh.Cache.stats ht.ht_cache)
        else None
      in
      let t0 = now () in
      let res =
        Trace.request ~req:ph.lat.Samples.n (fun () ->
            guarded (fun () -> client_request ~socket:ht.ht_socket s.hs_lines.(i)))
      in
      let t1 = now () in
      finish_op ph ~tag:i ~t0 ~first:t1 ~t1;
      Option.iter
        (fun (r0, c0) ->
          let r1 = Sh.Router.counters ht.ht_router and c1 = Sh.Cache.stats ht.ht_cache in
          bump ph "router.routed" (float_of_int (r1.Sh.Router.rt_routed - r0.Sh.Router.rt_routed));
          bump ph "router.cache_hits"
            (float_of_int (r1.Sh.Router.rt_cache_hits - r0.Sh.Router.rt_cache_hits));
          bump ph "cache.hits" (float_of_int (c1.Sh.Cache.c_hits - c0.Sh.Cache.c_hits));
          bump ph "cache.misses" (float_of_int (c1.Sh.Cache.c_misses - c0.Sh.Cache.c_misses));
          bump ph "cache.evictions"
            (float_of_int (c1.Sh.Cache.c_evictions - c0.Sh.Cache.c_evictions)))
        before;
      check_done ph ~expected:s.hs_expected ~target:ht.ht_name ~fname res
    in
    permuted_rounds passes ~seconds ~ops ~rng ~n:(Array.length s.hs_keys) one
  in
  (* in-process replay of the same key sequence: Router.route and
     Cache.get timed on their own, without the socket in between *)
  let replay ~rng ~ops =
    let s = get st in
    let order = Array.init (Array.length s.hs_keys) Fun.id in
    let did = ref 0 in
    while !did < ops do
      shuffle rng order;
      Array.iter
        (fun i ->
          if !did < ops then begin
            let ti, fname = s.hs_keys.(i) in
            let ht = s.hs_targets.(ti) in
            Trace.request ~req:!did (fun () ->
                ignore
                  (Trace.span Trace.l_route (fun () ->
                       Sh.Router.route ht.ht_router (req_of ~target:ht.ht_name fname)));
                ignore
                  (Trace.span Trace.l_cache (fun () -> Sh.Cache.get ht.ht_cache ~fname)));
            incr did
          end)
        order
    done
  in
  {
    w_name = "serve-hot";
    w_tail_q = 0.99;
    w_per_function = false;
    w_setup = setup;
    w_run = run;
    w_replay = Some replay;
  }

(* ------------------------------------------------------------------ *)
(* Report *)

let setup_repeats = 3

type metric = { m_name : string; m_value : float; m_unit : string; m_n : int }

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "metric %-26s %14.6g %-6s n=%d\n" m.m_name m.m_value m.m_unit m.m_n)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
              (json_float m.m_value) m.m_unit)
          metrics))

(* On a per-function workload, throughput is over the fixed function
   set: functions per second of the summed per-function mean latency, so
   the functions a last, partial round happened to reach weigh no more
   than the rest. Timing metrics are scaled to the nominal host (see
   [Probe]); the unscaled figures are printed on a line of their own. *)
let end_to_end (w : workload) ph ~setup_s ~heap_mb =
  let lat, first =
    if w.w_per_function then
      (Samples.per_tag_means ph.lat, Samples.per_tag_means ph.first)
    else (Samples.sorted_values ph.lat, Samples.sorted_values ph.first)
  in
  let n = Array.length lat in
  let throughput =
    if w.w_per_function then float_of_int n /. Array.fold_left ( +. ) 0.0 lat
    else float_of_int ph.ops /. ph.busy
  in
  let p50 = 1000.0 *. quantile lat 0.5
  and tail = 1000.0 *. quantile lat w.w_tail_q
  and ttff = 1000.0 *. quantile first 0.5 in
  let speed = Probe.speed Probe.samples and setup_speed = Probe.speed Probe.setup_samples in
  Printf.printf
    "host probe %.4f ms (n=%d), speed %.4f of nominal (set-up %.4f); unscaled: setup %.6g s, \
     throughput %.6g 1/s, p50 %.6g ms, tail %.6g ms, ttff %.6g ms\n"
    (1000.0 *. Probe.mean Probe.samples) Probe.samples.Samples.n speed setup_speed setup_s
    throughput p50 tail ttff;
  [
    { m_name = "setup_s"; m_value = setup_s *. setup_speed; m_unit = "s"; m_n = setup_repeats };
    { m_name = "throughput"; m_value = throughput /. speed; m_unit = "1/s"; m_n = ph.ops };
    { m_name = "p50_ms"; m_value = p50 *. speed; m_unit = "ms"; m_n = n };
    { m_name = "tail_ms"; m_value = tail *. speed; m_unit = "ms"; m_n = n };
    { m_name = "ttff_ms"; m_value = ttff *. speed; m_unit = "ms"; m_n = n };
    { m_name = "peak_heap_mb"; m_value = heap_mb; m_unit = "MB"; m_n = 1 };
  ]

let per_layer (w : workload) ~setup ~untraced ~traced ~gc ~rows =
  let ls = Trace.analyse rows in
  let l i = ls.(i) in
  let ms x = 1000.0 *. x in
  let us x = 1e6 *. x in
  let dec = l Trace.l_decode in
  let setup_ms k = ms (Option.value ~default:0.0 (List.assoc_opt k setup)) in
  let tokens = float_of_int (Atomic.get decode_tokens) in
  let is_model = w.w_name = "model" in
  let traced_ops = float_of_int (max 1 traced.ops) in
  (* request latency minus that request's own decode time *)
  let wait_ms =
    let dec_by_req = Hashtbl.create 256 in
    List.iter
      (fun (r : Trace.span_row) ->
        if r.sp_layer = Trace.l_decode then
          Hashtbl.replace dec_by_req r.sp_req
            ((r.sp_t1 -. r.sp_t0)
            +. Option.value ~default:0.0 (Hashtbl.find_opt dec_by_req r.sp_req)))
      rows;
    let waits =
      List.filter_map
        (fun (r : Trace.span_row) ->
          if r.sp_layer = Trace.l_op then
            Some
              (r.sp_t1 -. r.sp_t0
              -. Option.value ~default:0.0 (Hashtbl.find_opt dec_by_req r.sp_req))
          else None)
        rows
    in
    let a = Array.of_list waits in
    Array.sort Float.compare a;
    if w.w_name = "serve-cold" then ms (median a) else 0.0
  in
  let per_op ph = ph.busy /. float_of_int (max 1 ph.ops) in
  let overhead = 100.0 *. ((per_op traced /. per_op untraced) -. 1.0) in
  let both_ops = float_of_int (max 1 (untraced.ops + traced.ops)) in
  let p50 i = median (l i).Trace.ls_durs in
  let zero_nan x = if Float.is_nan x then 0.0 else x in
  let m name unit v n = { m_name = name; m_value = zero_nan v; m_unit = unit; m_n = n } in
  let c name = m name "count" (count traced name) traced.ops in
  let routed = count traced "router.routed" in
  [
    m "op.busy_ms" "ms" (ms traced.busy) traced.ops;
    m "prepare.busy_ms" "ms" (setup_ms "prepare.busy_ms") setup_repeats;
    m "train.busy_ms" "ms" (setup_ms "train.busy_ms") setup_repeats;
    m "regression.reference_ms" "ms" (setup_ms "regression.reference_ms") setup_repeats;
    m "cache.warm_ms" "ms" (setup_ms "cache.warm_ms") setup_repeats;
    m "decode.calls" "count" (float_of_int dec.ls_count) dec.ls_count;
    m "decode.busy_ms" "ms" (ms dec.ls_busy) dec.ls_count;
    m "decode.p50_us" "us" (us (p50 Trace.l_decode)) dec.ls_count;
    m "decode.tokens" "count" tokens dec.ls_count;
    m "nn.tokens_per_s" "1/s" (if is_model then tokens /. dec.ls_busy else 0.0) dec.ls_count;
    m "nn.ms_per_call" "ms"
      (if is_model then ms dec.ls_busy /. float_of_int dec.ls_count else 0.0)
      dec.ls_count;
    c "generate.calls";
    c "generate.stmts";
    m "generate.self_ms" "ms" (ms (l Trace.l_generate).ls_self) (l Trace.l_generate).ls_count;
    m "lint.busy_ms" "ms" (ms (l Trace.l_lint).ls_busy) (l Trace.l_lint).ls_count;
    c "lint.diags";
    m "absint.busy_ms" "ms" (ms (l Trace.l_absint).ls_busy) (l Trace.l_absint).ls_count;
    c "absint.sem_errors";
    m "regression.calls" "count" (float_of_int (l Trace.l_regression).ls_count)
      (l Trace.l_regression).ls_count;
    m "regression.busy_ms" "ms" (ms (l Trace.l_regression).ls_busy)
      (l Trace.l_regression).ls_count;
    c "regression.pass";
    c "journal.records";
    m "journal.bytes" "B" (count traced "journal.bytes") traced.ops;
    c "server.accepted";
    c "server.rejected";
    c "server.completed";
    m "evloop.ticks_per_req" "ticks" (count traced "evloop.ticks" /. traced_ops) traced.ops;
    m "evloop.wait_ms" "ms" wait_ms traced.ops;
    c "evloop.shed";
    m "client.connect_us" "us" (us (p50 Trace.l_connect)) (l Trace.l_connect).ls_count;
    m "client.first_line_ms" "ms" (ms (p50 Trace.l_first_line)) (l Trace.l_first_line).ls_count;
    m "proto.decode_us" "us" (us (p50 Trace.l_proto)) (l Trace.l_proto).ls_count;
    c "router.routed";
    m "router.hit_ratio" "ratio"
      (if routed = 0.0 then 0.0 else count traced "router.cache_hits" /. routed)
      traced.ops;
    m "router.route_us" "us" (us (p50 Trace.l_route)) (l Trace.l_route).ls_count;
    m "cache.get_us" "us" (us (p50 Trace.l_cache)) (l Trace.l_cache).ls_count;
    c "cache.hits";
    c "cache.misses";
    c "cache.evictions";
    m "gc.minor_words_per_op" "words" (gc.minor_words /. both_ops) (untraced.ops + traced.ops);
    m "gc.promoted_words_per_op" "words" (gc.promoted_words /. both_ops)
      (untraced.ops + traced.ops);
    m "gc.major_collections" "count" (float_of_int gc.major) (untraced.ops + traced.ops);
    m "trace.overhead_pct" "%" overhead traced.ops;
    (* per-layer times are not scaled; this is the host's speed while
       they were taken *)
    m "host.speed" "ratio" (Probe.speed Probe.samples) Probe.samples.Samples.n;
  ]

(* ------------------------------------------------------------------ *)
(* Entry point *)

let workloads = [ "port"; "serve-cold"; "serve-hot"; "model" ]

let make_workload ~root = function
  | "port" -> port_workload ()
  | "serve-cold" -> cold_workload ~root ()
  | "serve-hot" -> hot_workload ~root ()
  | "model" -> model_workload ()
  | w -> invalid_arg w

let run ~workload ~seed ~seconds ~trace ~ops =
  let root = Filename.concat work_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755;
  rm_rf root;
  Unix.mkdir root 0o755;
  Fun.protect
    ~finally:(fun () ->
      rm_rf root;
      (* left in place while another run still uses it *)
      try Unix.rmdir work_dir with Unix.Unix_error _ -> ())
    (fun () ->
      let w = make_workload ~root workload in
      (* set up several times; the last set-up serves the passes *)
      let setups = ref [] and teardown = ref (fun () -> ()) in
      for _ = 1 to setup_repeats do
        !teardown ();
        Gc.compact ();
        Probe.burst ();
        let (times, td), secs = timed w.w_setup in
        teardown := td;
        setups := (secs, times) :: !setups
      done;
      Probe.burst ();
      let sorted xs = Array.of_list (List.sort Float.compare xs) in
      let setup_s = median (sorted (List.map fst !setups)) in
      let setup_layers =
        List.map
          (fun (k, _) -> (k, median (sorted (List.map (fun (_, ts) -> List.assoc k ts) !setups))))
          (snd (List.hd !setups))
      in
      Fun.protect ~finally:(fun () -> !teardown ()) (fun () ->
          let rng = Random.State.make [| seed |] in
          let cap = if workload = "serve-hot" then 1 lsl 16 else 1024 in
          let untraced = new_phase cap in
          let traced = if trace then Some (new_phase cap) else None in
          let gc = w.w_run { untraced; traced } ~seconds ~ops ~rng in
          let heap_mb =
            float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
            /. 1048576.0
          in
          match traced with
          | None ->
              List.iter (Printf.eprintf "failure: %s\n") (List.rev untraced.failures);
              emit ~correct:(untraced.failed = 0) ~attempted:untraced.ops
                ~failed:untraced.failed
                (end_to_end w untraced ~setup_s ~heap_mb)
          | Some traced ->
              Option.iter
                (fun replay -> with_tracing (fun () -> replay ~rng ~ops:(min ops 2000)))
                w.w_replay;
              let rows = Trace.collect () in
              List.iter (Printf.eprintf "failure: %s\n")
                (List.rev (untraced.failures @ traced.failures));
              let failed = untraced.failed + traced.failed in
              emit ~correct:(failed = 0) ~attempted:(untraced.ops + traced.ops) ~failed
                (per_layer w ~setup:setup_layers ~untraced ~traced ~gc ~rows)))

(* Re-pin expected outputs: retrieval source digest + pass@1 verdict,
   and the model's decoded token ids, for all 189 functions. *)
let write_expected () =
  let prep = V.Pipeline.prepare () in
  let rt = V.Pipeline.train retrieval_config prep in
  let mt = V.Pipeline.train model_config prep in
  let vfs = prep.V.Pipeline.corpus.Vega_corpus.Corpus.vfs in
  let fns = held_out_fns prep in
  let refs =
    List.map
      (fun (p : Vega_target.Profile.t) ->
        (p.name, Vega_eval.Regression.reference_artifacts vfs p ()))
      Vega_target.Registry.held_out
  in
  let out name header f =
    let path = Filename.concat expected_dir name in
    Out_channel.with_open_text path (fun oc ->
        output_string oc header;
        List.iter (fun fn -> output_string oc (f fn)) fns)
  in
  out "retrieval.tsv" "# target\tfunction\tmd5(source)\tpass@1\tdegraded\n" (fun f ->
      let b = f.f_bundle in
      let gf =
        V.Generate.run prep.V.Pipeline.ctx b.V.Pipeline.tpl b.V.Pipeline.analysis
          b.V.Pipeline.hints ~target:f.f_target.name
          ~decoder:(V.Pipeline.retrieval_decoder rt)
      in
      let source = V.Generate.source_of gf in
      let pass =
        match Vega_srclang.Parser.parse_function_opt source with
        | Error _ -> false
        | Ok func ->
            Vega_eval.Regression.pass1 vfs f.f_target
              ~reference:(List.assoc f.f_target.name refs) ~fname:f.f_name
              ~replacement:(Some func) ()
            = Ok ()
      in
      let degraded =
        List.length
          (List.filter
             (fun (s : V.Generate.gen_stmt) ->
               s.V.Generate.g_level <> Vega_robust.Degrade.Primary)
             gf.V.Generate.gf_stmts)
      in
      Printf.printf "%s/%s\n%!" f.f_target.name f.f_name;
      Printf.sprintf "%s\t%s\t%s\t%d\t%d\n" f.f_target.name f.f_name (md5 source)
        (if pass then 1 else 0) degraded);
  let vocab = V.Codebe.vocab mt.V.Pipeline.codebe in
  out "model.tsv" "# target\tfunction\tmd5(token ids)\ttokens\n" (fun f ->
      let b = f.f_bundle in
      let ids = Buffer.create 4096 and n = ref 0 in
      let decoder fv =
        let ((toks, _) as r) = V.Pipeline.model_decoder mt fv in
        n := !n + List.length toks;
        record_ids vocab ids toks;
        r
      in
      ignore
        (V.Generate.run prep.V.Pipeline.ctx b.V.Pipeline.tpl b.V.Pipeline.analysis
           b.V.Pipeline.hints ~target:f.f_target.name ~decoder);
      Printf.sprintf "%s\t%s\t%s\t%d\n" f.f_target.name f.f_name
        (md5 (Buffer.contents ids)) !n)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and ops = ref max_int and pin = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " seed of the request order");
      ("--seconds", Arg.Set_float seconds, " measured seconds per pass");
      ("--trace", Arg.Set_int trace, " 1 = per-layer run with spans");
      ("--ops", Arg.Set_int ops, " cap on operations per pass");
      ("--write-expected", Arg.Set pin, " re-pin perfbench/expected/*.tsv");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !pin then write_expected ()
  else if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload; expected one of " ^ String.concat ", " workloads);
    exit 2
  end
  else
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~ops:!ops
