(* The shared breaker and backoff (Vega_robust.Breaker) against the
   hand-written copies they replaced: the supervisor's state machine,
   the router's, and both seeded delay functions, kept verbatim below as
   executable references. *)

module R = Vega_robust
module B = R.Breaker
module Rng = Vega_util.Rng

(* ---------------- references ---------------- *)

(* The supervisor's breaker as it was hand-written in Supervisor (the
   transitions of [open_breaker], [note_failure] and [guard]'s
   admission), with the decoder-family test reduced to [counted] and
   the skip's [raise] reduced to a [None] verdict. *)
module Ref_sup = struct
  type breaker = Closed of int | Open of int | Half_open
  type cfg = { breaker_threshold : int; breaker_cooldown : int }

  type stats = {
    mutable sup_breaker_opened : int;
    mutable sup_breaker_skips : int;
  }

  type t = { cfg : cfg; st : stats; mutable breaker : breaker }

  let create cfg =
    {
      cfg;
      st = { sup_breaker_opened = 0; sup_breaker_skips = 0 };
      breaker = Closed 0;
    }

  let open_breaker t =
    t.breaker <- Open t.cfg.breaker_cooldown;
    t.st.sup_breaker_opened <- t.st.sup_breaker_opened + 1

  let note_failure t ~counted =
    match t.breaker with
    | Half_open -> open_breaker t
    | Closed k when counted ->
        if k + 1 >= t.cfg.breaker_threshold then open_breaker t
        else t.breaker <- Closed (k + 1)
    | Closed _ -> t.breaker <- Closed 0
    | Open _ -> ()

  (* [guard]'s admission: [None] when the call is skipped, else whether
     it runs as the lone half-open probe *)
  let admit t =
    (match t.breaker with
    | Open n when n > 1 ->
        t.breaker <- Open (n - 1);
        t.st.sup_breaker_skips <- t.st.sup_breaker_skips + 1
    | Open _ -> t.breaker <- Half_open
    | Closed _ | Half_open -> ());
    match t.breaker with
    | Open _ -> None
    | _ -> Some (t.breaker = Half_open)

  let success t = t.breaker <- Closed 0
end

(* The router's breaker as it was hand-written in Router
   ([breaker_admits], [note_success], [note_failure]); every contact
   failure counts. *)
module Ref_router = struct
  type sh = { mutable sh_breaker : Ref_sup.breaker }

  let breaker_admits ~sh =
    match sh.sh_breaker with
    | Ref_sup.Closed _ | Ref_sup.Half_open -> true
    | Ref_sup.Open k ->
        if k > 1 then begin
          sh.sh_breaker <- Ref_sup.Open (k - 1);
          false
        end
        else begin
          sh.sh_breaker <- Ref_sup.Half_open;
          true
        end

  let note_success ~sh = sh.sh_breaker <- Ref_sup.Closed 0

  let note_failure ~threshold ~cooldown ~sh =
    match sh.sh_breaker with
    | Ref_sup.Half_open -> sh.sh_breaker <- Ref_sup.Open cooldown
    | Ref_sup.Closed n ->
        if n + 1 >= threshold then sh.sh_breaker <- Ref_sup.Open cooldown
        else sh.sh_breaker <- Ref_sup.Closed (n + 1)
    | Ref_sup.Open _ -> ()
end

(* Supervisor.backoff_delay: cap, jitter, cap again. *)
let ref_sup_delay ~base ~max rng attempt =
  let raw = base *. (2.0 ** float_of_int attempt) in
  let capped = Float.min max raw in
  let jitter = 0.75 +. Rng.float rng 0.5 in
  Float.min max (capped *. jitter)

(* Router.backoff_delay: exponent clamped at 16, jitter, then cap. *)
let ref_router_delay ~base ~max rng attempt =
  let expo = base *. (2.0 ** float_of_int (min attempt 16)) in
  let jitter = Rng.uniform rng ~lo:0.75 ~hi:1.25 in
  Float.min max (expo *. jitter)

let of_ref = function
  | Ref_sup.Closed k -> B.Closed k
  | Ref_sup.Open k -> B.Open k
  | Ref_sup.Half_open -> B.Half_open

(* ---------------- properties ---------------- *)

type step = Admit | Success | Counted | Uncounted

let step_gen =
  QCheck.Gen.(
    map
      (function 0 -> Admit | 1 -> Success | 2 -> Counted | _ -> Uncounted)
      (int_range 0 3))

let show_step = function
  | Admit -> "admit"
  | Success -> "success"
  | Counted -> "counted"
  | Uncounted -> "uncounted"

let script_arb =
  QCheck.make
    ~print:(fun (th, cd, steps) ->
      Printf.sprintf "threshold %d, cooldown %d: %s" th cd
        (String.concat " " (List.map show_step steps)))
    QCheck.Gen.(
      triple (int_range 1 6) (int_range 0 6)
        (list_size (int_range 0 80) step_gen))

(* Every step of a random outcome script lands the shared machine in
   the reference supervisor's state, with the same skip and probe
   verdicts and the same opened/skipped counts. *)
let qcheck_supervisor_parity =
  QCheck.Test.make ~name:"shared breaker = supervisor's, step by step"
    ~count:500 script_arb (fun (threshold, cooldown, steps) ->
      let r =
        Ref_sup.create
          { Ref_sup.breaker_threshold = threshold; breaker_cooldown = cooldown }
      in
      let s = ref B.initial and opened = ref 0 and skips = ref 0 in
      (* after a failure, [closed] is the retry loops' old "not Open" *)
      let fail ~counted =
        let before = !s in
        s := B.failure ~threshold ~cooldown ~counted before;
        if B.tripped ~before !s then incr opened;
        Ref_sup.note_failure r ~counted;
        B.closed !s
        = match r.Ref_sup.breaker with Ref_sup.Open _ -> false | _ -> true
      in
      List.for_all
        (fun step ->
          let same_verdict =
            match step with
            | Admit -> (
                let verdict, s' = B.admit !s in
                s := s';
                if verdict = B.Skip then incr skips;
                match (Ref_sup.admit r, verdict) with
                | None, B.Skip | Some false, B.Call | Some true, B.Probe -> true
                | _ -> false)
            | Success ->
                s := B.success !s;
                Ref_sup.success r;
                true
            | Counted -> fail ~counted:true
            | Uncounted -> fail ~counted:false
          in
          same_verdict
          && !s = of_ref r.Ref_sup.breaker
          && !opened = r.Ref_sup.st.Ref_sup.sup_breaker_opened
          && !skips = r.Ref_sup.st.Ref_sup.sup_breaker_skips)
        steps)

(* The router counts every failure: with [counted:true] the shared
   machine is the router's too (uncounted steps do not exist there). *)
let qcheck_router_parity =
  QCheck.Test.make ~name:"shared breaker = router's, step by step" ~count:500
    script_arb (fun (threshold, cooldown, steps) ->
      let sh = { Ref_router.sh_breaker = Ref_sup.Closed 0 } in
      let s = ref B.initial in
      List.for_all
        (fun step ->
          let same_verdict =
            match step with
            | Admit ->
                let verdict, s' = B.admit !s in
                s := s';
                let admits = Ref_router.breaker_admits ~sh in
                (* [try_shard]'s single-probe test, read after admission *)
                let single = sh.Ref_router.sh_breaker = Ref_sup.Half_open in
                admits = (verdict <> B.Skip)
                && ((not admits) || single = (verdict = B.Probe))
            | Success ->
                s := B.success !s;
                Ref_router.note_success ~sh;
                true
            | Counted | Uncounted ->
                s := B.failure ~threshold ~cooldown ~counted:true !s;
                Ref_router.note_failure ~threshold ~cooldown ~sh;
                true
          in
          same_verdict && !s = of_ref sh.Ref_router.sh_breaker)
        steps)

let delay_arb =
  QCheck.make
    ~print:(fun (base, max, seed) ->
      Printf.sprintf "base %h, max %h, seed %d" base max seed)
    QCheck.Gen.(
      triple (float_range 1e-6 2.0) (float_range 1e-4 30.0)
        (int_range 0 1_000_000))

let bits = Int64.bits_of_float

(* Bit for bit the supervisor's delay on attempts 0-30, drawing the same
   jitter sequence from equal seeds. *)
let qcheck_supervisor_delay =
  QCheck.Test.make ~name:"shared backoff = supervisor's, bit for bit"
    ~count:300 delay_arb (fun (base, max, seed) ->
      let a = Rng.create seed and b = Rng.create seed in
      List.for_all
        (fun attempt ->
          bits (B.backoff ~base ~max a attempt)
          = bits (ref_sup_delay ~base ~max b attempt))
        (List.init 31 Fun.id))

(* Bit for bit the router's delay wherever it did not clamp the exponent
   (a <= 16) and the uncapped delay fits under the cap. *)
let qcheck_router_delay =
  QCheck.Test.make ~name:"shared backoff = router's below the cap" ~count:300
    delay_arb (fun (base, max, seed) ->
      let a = Rng.create seed and b = Rng.create seed in
      List.for_all
        (fun attempt ->
          let shared = B.backoff ~base ~max a attempt in
          let router = ref_router_delay ~base ~max b attempt in
          attempt > 16
          || base *. (2.0 ** float_of_int attempt) > max
          || bits shared = bits router)
        (List.init 31 Fun.id))

let test_names () =
  Alcotest.(check (list string))
    "state names" [ "closed"; "open"; "half-open" ]
    (List.map B.name [ B.initial; B.Open 3; B.Half_open ]);
  Alcotest.(check (list bool))
    "only a closed breaker is closed" [ true; false; false ]
    (List.map B.closed [ B.Closed 2; B.Open 1; B.Half_open ])

let test_index_seed () =
  Alcotest.(check int) "index 0 is the base seed" 0x5eed
    (Rng.index_seed 0x5eed 0);
  Alcotest.(check int) "golden-ratio mix" (0x5eed lxor (3 * 0x9E3779B9))
    (Rng.index_seed 0x5eed 3)

let suite =
  [
    Alcotest.test_case "names and closed predicate" `Quick test_names;
    Alcotest.test_case "index seed derivation" `Quick test_index_seed;
    QCheck_alcotest.to_alcotest qcheck_supervisor_parity;
    QCheck_alcotest.to_alcotest qcheck_router_parity;
    QCheck_alcotest.to_alcotest qcheck_supervisor_delay;
    QCheck_alcotest.to_alcotest qcheck_router_delay;
  ]
