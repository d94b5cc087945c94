(* Tests for the sharded serving tier: the consistent-hash ring (unit +
   qcheck balance / minimal-disruption properties), the content-
   addressed result cache (bit-identical hits with zero decoder calls,
   corrupt-entry eviction + fall-through), the router (reroute vs
   shed policy, circuit breaker, seeded backoff determinism, status
   wire format, multi-shard parity with a single server), and the
   router's socket front door on the event loop. *)

module V = Vega
module R = Vega_robust
module S = Vega_serve
module Sh = Vega_shard

let target = "RISCV"
let pipeline = Test_robust.pipeline

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "vega_shard_%d_%s%d" (Unix.getpid ()) name !n)
    in
    if not (Sys.file_exists d) then Unix.mkdir d 0o755;
    d

let mk ?(client = "t") fname =
  {
    S.Proto.rq_client = client;
    rq_target = target;
    rq_fname = fname;
    rq_deadline_ms = None;
  }

let fnames t =
  List.map
    (fun (b : V.Pipeline.bundle) -> b.V.Pipeline.spec.Vega_corpus.Spec.fname)
    t.V.Pipeline.prep.V.Pipeline.bundles

let tcfg =
  {
    S.Server.default_config with
    S.Server.client_burst = 100000.0;
    client_rate = 0.0;
  }

(* Router config for tests: instant "sleeps", no probes, no retries
   unless the test asks for them. *)
let rcfg =
  { Sh.Router.default_config with retries = 0; probe_every = 0; seed = 77 }

let expect_done = function
  | S.Proto.Done _ -> ()
  | S.Proto.Rejected r ->
      Alcotest.failf "rejected: %s" (S.Proto.reject_to_string r)
  | S.Proto.Failed m -> Alcotest.failf "failed: %s" m

let mk_server ?(decoder = None) ?run_dir ?resume ?kill_at () =
  let t = Lazy.force pipeline in
  let decoder =
    match decoder with
    | Some d -> d
    | None -> V.Pipeline.retrieval_decoder t
  in
  match
    S.Server.create ~config:tcfg ?run_dir ?resume ?kill_at t ~target ~decoder
  with
  | Ok srv -> srv
  | Error e -> Alcotest.failf "server create failed: %s" e

let mk_router ?(config = rcfg) ?cache ?report eps =
  match
    Sh.Router.create ~config ?cache ?report ~sleep:(fun _ -> ())
      ~fingerprint:"fp-test" ~desc_hash:"dh-test" eps
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "router create failed: %s" e

(* An endpoint that is down hard: every contact raises. *)
let dead_endpoint ?(contacts = ref 0) name =
  {
    Sh.Router.ep_name = name;
    ep_stream =
      (fun _ ->
        incr contacts;
        raise
          (R.Fault.Fault
             (R.Fault.Shard_failure { shard = name; detail = "dead" })));
    ep_health = (fun () -> None);
    ep_drain = (fun () -> None);
  }

(* ---------------- ring ---------------- *)

let test_ring_basics () =
  let ring = Sh.Ring.create ~replicas:64 [ "a"; "b"; "c" ] in
  Alcotest.(check int) "three shards" 3 (Sh.Ring.size ring);
  Alcotest.(check (list string)) "names sorted" [ "a"; "b"; "c" ]
    (Sh.Ring.shards ring);
  (* lookup is deterministic and owned by the successor walk head *)
  List.iter
    (fun key ->
      let owner = Sh.Ring.lookup ring key in
      Alcotest.(check string) "lookup stable" owner (Sh.Ring.lookup ring key);
      match Sh.Ring.successors ring key with
      | head :: rest ->
          Alcotest.(check string) "owner heads the successor walk" owner head;
          Alcotest.(check (list string))
            "successors cover every shard once"
            (Sh.Ring.shards ring)
            (List.sort compare (head :: rest))
      | [] -> Alcotest.fail "no successors")
    [ "k1"; "k2"; "getRelocType"; "" ];
  (* bad configurations are loud *)
  (match Sh.Ring.create [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty shard list accepted");
  (match Sh.Ring.create [ "a"; "a" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate shard accepted");
  match Sh.Ring.remove (Sh.Ring.create [ "solo" ]) "solo" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "removing the last shard accepted"

let test_ring_balance_fixed () =
  (* deterministic balance check on a fixed ring: 3 shards, 1200 keys *)
  let ring = Sh.Ring.create ~replicas:64 [ "shard-0"; "shard-1"; "shard-2" ] in
  let counts = Hashtbl.create 3 in
  for i = 0 to 1199 do
    let owner = Sh.Ring.lookup ring (Printf.sprintf "key-%d" i) in
    Hashtbl.replace counts owner
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts owner))
  done;
  List.iter
    (fun name ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts name) in
      let share = float_of_int n /. 1200.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s share %.3f within [0.1333, 0.6667]" name share)
        true
        (share >= 1.0 /. 7.5 && share <= 2.0 /. 3.0))
    (Sh.Ring.shards ring)

(* qcheck generators: 2-5 distinct shard names, alphanumeric keys *)
let shard_names_gen =
  QCheck.Gen.(
    let name = map (Printf.sprintf "sh%d") (int_range 0 99) in
    list_size (int_range 2 5) name
    |> map (fun l -> List.sort_uniq compare l)
    |> map (fun l -> if List.length l < 2 then [ "sh0"; "sh1" ] else l))

let key_gen = QCheck.Gen.(map (Printf.sprintf "k%d") (int_range 0 1_000_000))

let qcheck_balance =
  QCheck.Test.make ~name:"ring key distribution within balance bound"
    ~count:30
    (QCheck.make ~print:(fun names -> String.concat "," names) shard_names_gen)
    (fun names ->
      let ring = Sh.Ring.create ~replicas:96 names in
      let total = 600 in
      let counts = Hashtbl.create 8 in
      for i = 0 to total - 1 do
        let owner = Sh.Ring.lookup ring (Printf.sprintf "bkey-%d" i) in
        Hashtbl.replace counts owner
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts owner))
      done;
      let fair = float_of_int total /. float_of_int (List.length names) in
      List.for_all
        (fun name ->
          let n =
            float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name))
          in
          n >= fair /. 4.0 && n <= fair *. 4.0)
        names)

let qcheck_minimal_disruption =
  QCheck.Test.make
    ~name:"removing a shard remaps only that shard's keys" ~count:30
    (QCheck.pair
       (QCheck.make ~print:(String.concat ",") shard_names_gen)
       (QCheck.make
          ~print:(String.concat ",")
          (QCheck.Gen.list_size (QCheck.Gen.return 80) key_gen)))
    (fun (names, keys) ->
      let ring = Sh.Ring.create ~replicas:64 names in
      let victim = List.hd names in
      let ring' = Sh.Ring.remove ring victim in
      List.for_all
        (fun key ->
          let owner = Sh.Ring.lookup ring key in
          let owner' = Sh.Ring.lookup ring' key in
          if owner = victim then
            (* the victim's keys land somewhere that still exists *)
            List.mem owner' (Sh.Ring.shards ring')
          else
            (* every other key keeps its owner — minimal disruption *)
            owner' = owner)
        keys)

(* The symmetric property for joins: adding a shard captures some keys
   for the newcomer and moves nothing else — and removing it again
   restores the original ownership exactly. *)
let qcheck_add_disruption =
  QCheck.Test.make
    ~name:"adding a shard moves only keys the newcomer captures" ~count:30
    (QCheck.pair
       (QCheck.make ~print:(String.concat ",") shard_names_gen)
       (QCheck.make
          ~print:(String.concat ",")
          (QCheck.Gen.list_size (QCheck.Gen.return 80) key_gen)))
    (fun (names, keys) ->
      let ring = Sh.Ring.create ~replicas:64 names in
      let newcomer = "sh-new" in
      let ring' = Sh.Ring.add ring newcomer in
      let back = Sh.Ring.remove ring' newcomer in
      List.for_all
        (fun key ->
          let owner = Sh.Ring.lookup ring key in
          let owner' = Sh.Ring.lookup ring' key in
          (* minimal movement on join... *)
          (owner' = owner || owner' = newcomer)
          (* ...and add/remove are exact inverses *)
          && Sh.Ring.lookup back key = owner)
        keys)

(* ---------------- cache ---------------- *)

let done_reply ?(degraded = 0) fname =
  S.Proto.Done
    {
      r_fname = fname;
      r_target = target;
      r_confidence = 0.8125;
      r_degraded = degraded;
      r_resumed = false;
      r_source = "unsigned " ^ fname ^ " ( ) {\nreturn 7 ;\n}";
    }

let test_cache_roundtrip () =
  let report = R.Report.create () in
  let cache =
    Sh.Cache.create ~report ~dir:(fresh_dir "cache") ~fingerprint:"fp"
      ~desc_hash:"dh" ()
  in
  Alcotest.(check bool) "cold miss" true (Sh.Cache.get cache ~fname:"f" = None);
  let reply = done_reply "f" in
  Alcotest.(check bool) "clean done is cached" true
    (Sh.Cache.put cache ~fname:"f" reply);
  (match Sh.Cache.get cache ~fname:"f" with
  | Some got ->
      Alcotest.(check bool) "hit is bit-identical" true
        (S.Proto.encode_reply got = S.Proto.encode_reply reply)
  | None -> Alcotest.fail "entry vanished");
  (* degraded / rejected / failed results are never cached *)
  Alcotest.(check bool) "degraded not cached" false
    (Sh.Cache.put cache ~fname:"g" (done_reply ~degraded:1 "g"));
  Alcotest.(check bool) "rejection not cached" false
    (Sh.Cache.put cache ~fname:"g" (S.Proto.Rejected S.Proto.Draining));
  Alcotest.(check bool) "failure not cached" false
    (Sh.Cache.put cache ~fname:"g" (S.Proto.Failed "no"));
  (* a different model fingerprint addresses a different entry *)
  let other =
    Sh.Cache.create ~dir:(Sh.Cache.dir cache) ~fingerprint:"fp2"
      ~desc_hash:"dh" ()
  in
  Alcotest.(check bool) "other fingerprint misses" true
    (Sh.Cache.get other ~fname:"f" = None);
  let stats = Sh.Cache.stats cache in
  Alcotest.(check int) "one entry on disk" 1 stats.Sh.Cache.c_entries;
  Alcotest.(check int) "one hit" 1 stats.Sh.Cache.c_hits;
  Alcotest.(check int) "one put" 1 stats.Sh.Cache.c_puts;
  Alcotest.(check int) "no evictions" 0 stats.Sh.Cache.c_evictions

let test_cache_corrupt_entry () =
  let report = R.Report.create () in
  let cache =
    Sh.Cache.create ~report ~dir:(fresh_dir "cachecorrupt") ~fingerprint:"fp"
      ~desc_hash:"dh" ()
  in
  ignore (Sh.Cache.put cache ~fname:"f" (done_reply "f"));
  let path = Sh.Cache.path cache ~fname:"f" in
  Alcotest.(check bool) "entry written" true (Sys.file_exists path);
  (* flip one seeded byte on disk *)
  let inj = R.Inject.create ~seed:5 R.Inject.Cache_corrupt in
  (match R.Inject.corrupt_cache_entry inj ~path with
  | Some _ -> ()
  | None -> Alcotest.fail "injector did not flip a byte");
  (* the corrupt entry is detected, evicted, recorded — and not served *)
  Alcotest.(check bool) "corrupt entry not served" true
    (Sh.Cache.get cache ~fname:"f" = None);
  Alcotest.(check bool) "corrupt entry deleted" false (Sys.file_exists path);
  Alcotest.(check int) "cache-corruption fault recorded" 1
    (R.Report.count_class report R.Fault.Ccache);
  let stats = Sh.Cache.stats cache in
  Alcotest.(check int) "eviction counted" 1 stats.Sh.Cache.c_evictions;
  (* the slot is usable again *)
  Alcotest.(check bool) "re-put after eviction" true
    (Sh.Cache.put cache ~fname:"f" (done_reply "f"));
  Alcotest.(check bool) "entry back" true (Sh.Cache.get cache ~fname:"f" <> None)

(* Cache in front of a real shard: a hit answers bit-identically with
   zero decoder calls. *)
let test_cache_zero_decodes () =
  let t = Lazy.force pipeline in
  let base = V.Pipeline.retrieval_decoder t in
  let decodes = Atomic.make 0 in
  let counting fv =
    Atomic.incr decodes;
    base fv
  in
  let srv = mk_server ~decoder:(Some counting) () in
  let report = R.Report.create () in
  let cache =
    Sh.Cache.create ~report ~dir:(fresh_dir "cachefront") ~fingerprint:"fp"
      ~desc_hash:"dh" ()
  in
  let router = mk_router ~cache ~report [ Sh.Router.of_server ~name:"s0" srv ] in
  let fname = List.hd (fnames t) in
  let r1 = Sh.Router.route router (mk fname) in
  expect_done r1;
  let cold = Atomic.get decodes in
  Alcotest.(check bool) "cold route decodes" true (cold > 0);
  (* the hit: bit-identical payload, decoder untouched *)
  let r2 = Sh.Router.route router (mk fname) in
  Alcotest.(check bool) "hit bit-identical to cold reply" true
    (S.Proto.encode_reply r2 = S.Proto.encode_reply r1);
  Alcotest.(check int) "zero decoder calls on the hit" cold
    (Atomic.get decodes);
  Alcotest.(check string) "decision log: accept then cache hit" "AC"
    (Sh.Router.decisions router);
  (* flip a byte on disk: the next route evicts, falls through to a
     fresh shard (new done table), re-generates, re-caches *)
  (match
     R.Inject.corrupt_cache_entry
       (R.Inject.create ~seed:3 R.Inject.Cache_corrupt)
       ~path:(Sh.Cache.path cache ~fname)
   with
  | Some _ -> ()
  | None -> Alcotest.fail "no byte flipped");
  let srv2 = mk_server ~decoder:(Some counting) () in
  let router2 =
    mk_router ~cache ~report [ Sh.Router.of_server ~name:"s0" srv2 ]
  in
  let r3 = Sh.Router.route router2 (mk fname) in
  expect_done r3;
  Alcotest.(check bool) "fell through to generation" true
    (Atomic.get decodes > cold);
  Alcotest.(check bool) "regenerated reply bit-identical" true
    (S.Proto.encode_reply r3 = S.Proto.encode_reply r1);
  Alcotest.(check int) "corruption recorded" 1
    (R.Report.count_class report R.Fault.Ccache);
  Alcotest.(check bool) "entry re-cached" true
    (Sys.file_exists (Sh.Cache.path cache ~fname));
  S.Server.drain srv;
  S.Server.drain srv2

(* ---------------- router ---------------- *)

(* With one dead shard, reroute policy answers every request from the
   survivor; shed policy drops exactly the dead shard's keys. *)
let test_router_reroute_vs_shed () =
  let t = Lazy.force pipeline in
  let names = fnames t in
  let run policy =
    let srv = mk_server () in
    let eps =
      [ Sh.Router.of_server ~name:"alive" srv; dead_endpoint "dead" ]
    in
    let router =
      mk_router ~config:{ rcfg with Sh.Router.policy } eps
    in
    let replies = List.map (fun f -> (f, Sh.Router.route router (mk f))) names in
    let log = Sh.Router.decisions router in
    S.Server.drain srv;
    (router, replies, log)
  in
  (* reroute: everything lands on the live shard, dead-owned keys as 'R' *)
  let router, replies, log = run Sh.Router.Reroute in
  List.iter (fun (_, r) -> expect_done r) replies;
  Alcotest.(check bool) "some keys owned by the dead shard" true
    (String.contains log 'R');
  Alcotest.(check bool) "some keys owned by the live shard" true
    (String.contains log 'A');
  Alcotest.(check bool) "nothing shed under reroute" false
    (String.contains log 'D');
  Alcotest.(check int) "no cache: every request routed"
    (List.length names)
    (Sh.Router.counters router).Sh.Router.rt_routed;
  (* shard failures recorded for router-observed contact faults *)
  Alcotest.(check bool) "shard failures recorded" true
    (R.Report.count_class (Sh.Router.report router) R.Fault.Cshard > 0);
  (* shed: dead-owned keys get the typed rejection, the rest succeed *)
  let _, replies', log' = run Sh.Router.Shed in
  let sheds =
    List.filter
      (fun (_, r) ->
        match r with
        | S.Proto.Rejected (S.Proto.Shard_down { shard }) ->
            Alcotest.(check string) "shed names the dead owner" "dead" shard;
            true
        | r ->
            expect_done r;
            false)
      replies'
  in
  Alcotest.(check bool) "shed policy drops the dead shard's keys" true
    (List.length sheds > 0);
  Alcotest.(check bool) "shed log has D and no R" true
    (String.contains log' 'D' && not (String.contains log' 'R'));
  (* the two policies agree on which keys are troubled: 'R' positions
     under reroute are exactly 'D' positions under shed *)
  Alcotest.(check int) "same decision length"
    (String.length log) (String.length log');
  String.iteri
    (fun i c ->
      let c' = log'.[i] in
      match c with
      | 'R' -> Alcotest.(check char) "R maps to D" 'D' c'
      | c -> Alcotest.(check char) "A maps to A" c c')
    log

let test_router_breaker () =
  let contacts = ref 0 in
  let srv = mk_server () in
  let cfg =
    {
      rcfg with
      Sh.Router.policy = Sh.Router.Shed;
      breaker_threshold = 2;
      breaker_cooldown = 3;
    }
  in
  let dead = dead_endpoint ~contacts "dead" in
  (* single-shard router: every key is owned by the dead shard *)
  let router = mk_router ~config:cfg [ dead ] in
  let t = Lazy.force pipeline in
  let fname = List.hd (fnames t) in
  let shoot () = ignore (Sh.Router.route router (mk fname)) in
  (* threshold contacts open the breaker *)
  shoot ();
  shoot ();
  Alcotest.(check int) "two contacts before the breaker opens" 2 !contacts;
  (match Sh.Router.status router with
  | [ s ] -> Alcotest.(check string) "breaker open" "open" s.Sh.Router.ss_breaker
  | _ -> Alcotest.fail "one shard expected");
  (* cooldown: the next [cooldown - 1] decisions shed without contact *)
  shoot ();
  shoot ();
  Alcotest.(check int) "open breaker stops contacts" 2 !contacts;
  (* cooldown expires: half-open lets exactly one probe through *)
  shoot ();
  Alcotest.(check int) "half-open probes once" 3 !contacts;
  (match Sh.Router.status router with
  | [ s ] ->
      Alcotest.(check string) "probe failed: open again" "open"
        s.Sh.Router.ss_breaker;
      Alcotest.(check int) "every request shed" 5 s.Sh.Router.ss_shed
  | _ -> Alcotest.fail "one shard expected");
  S.Server.drain srv

(* The full Closed/Open/Half_open transition table, pinned. The
   half-open probe closes on any typed reply — a Done, or an admission
   rejection like Queue_full, because overload is the shard alive and
   speaking — and re-opens only on a real contact failure. *)
let test_breaker_transition_table () =
  let t = Lazy.force pipeline in
  let fname = List.hd (fnames t) in
  let script = ref [] in
  let contacts = ref 0 in
  let scripted =
    {
      Sh.Router.ep_name = "s";
      ep_stream =
        Sh.Router.buffered_stream (fun _ ->
          incr contacts;
          match !script with
          | [] -> Alcotest.fail "unscripted contact"
          | step :: rest -> (
              script := rest;
              match step with
              | `Fail ->
                  raise
                    (R.Fault.Fault
                       (R.Fault.Shard_failure
                          { shard = "s"; detail = "scripted" }))
              | `Reject ->
                  S.Proto.Rejected (S.Proto.Queue_full { depth = 9; cap = 8 })
              | `Done -> done_reply fname));
      ep_health = (fun () -> None);
      ep_drain = (fun () -> None);
    }
  in
  let cfg =
    {
      rcfg with
      Sh.Router.policy = Sh.Router.Shed;
      breaker_threshold = 2;
      breaker_cooldown = 3;
    }
  in
  let router = mk_router ~config:cfg [ scripted ] in
  let breaker () =
    match Sh.Router.status router with
    | [ s ] -> s.Sh.Router.ss_breaker
    | _ -> Alcotest.fail "one shard expected"
  in
  let shoot () = ignore (Sh.Router.route router (mk fname)) in
  Alcotest.(check string) "starts closed" "closed" (breaker ());
  (* threshold failures: Closed -> Open *)
  script := [ `Fail; `Fail ];
  shoot ();
  shoot ();
  Alcotest.(check string) "threshold failures open" "open" (breaker ());
  Alcotest.(check int) "two contacts so far" 2 !contacts;
  (* Open counts down in skipped decisions, no contact *)
  shoot ();
  shoot ();
  Alcotest.(check string) "open during cooldown" "open" (breaker ());
  Alcotest.(check int) "no contact while open" 2 !contacts;
  (* cooldown expiry: Open -> Half_open, one probe; a typed admission
     rejection CLOSES it — the regression this test pins *)
  script := [ `Reject ];
  shoot ();
  Alcotest.(check int) "half-open probes once" 3 !contacts;
  Alcotest.(check string) "typed rejection closes the breaker" "closed"
    (breaker ());
  (* closed serves normally *)
  script := [ `Done ];
  shoot ();
  Alcotest.(check string) "stays closed on success" "closed" (breaker ());
  (* re-open, and this time the half-open probe fails: back to Open *)
  script := [ `Fail; `Fail ];
  shoot ();
  shoot ();
  Alcotest.(check string) "re-opened" "open" (breaker ());
  shoot ();
  shoot ();
  script := [ `Fail ];
  shoot ();
  Alcotest.(check string) "failed probe re-opens" "open" (breaker ());
  Alcotest.(check int) "exactly the scripted contacts happened" 7 !contacts;
  (* and a successful probe closes again *)
  shoot ();
  shoot ();
  script := [ `Done ];
  shoot ();
  Alcotest.(check string) "successful probe closes" "closed" (breaker ())

(* The retry budget stops the moment the breaker opens mid-loop: with
   retries=5 and threshold=2, one routing decision contacts the dead
   shard exactly twice. *)
let test_breaker_stops_retries () =
  let contacts = ref 0 in
  let cfg =
    {
      rcfg with
      Sh.Router.policy = Sh.Router.Shed;
      retries = 5;
      breaker_threshold = 2;
    }
  in
  let router = mk_router ~config:cfg [ dead_endpoint ~contacts "dead" ] in
  ignore (Sh.Router.route router (mk "f"));
  Alcotest.(check int) "retries stop when the breaker opens" 2 !contacts

(* Backoff delays are seeded: two routers with the same seed retry with
   byte-identical delay sequences; the delays stay in the jitter band. *)
let test_router_backoff_determinism () =
  let delays seed =
    let log = ref [] in
    let cfg =
      {
        rcfg with
        Sh.Router.policy = Sh.Router.Shed;
        retries = 3;
        breaker_threshold = 100;
        seed;
      }
    in
    match
      Sh.Router.create ~config:cfg
        ~sleep:(fun d -> log := d :: !log)
        ~fingerprint:"fp" ~desc_hash:"dh"
        [ dead_endpoint "dead" ]
    with
    | Error e -> Alcotest.failf "router create failed: %s" e
    | Ok router ->
        ignore (Sh.Router.route router (mk "f"));
        List.rev !log
  in
  let d1 = delays 42 in
  Alcotest.(check int) "three retries, three sleeps" 3 (List.length d1);
  Alcotest.(check bool) "same seed, same delays" true (d1 = delays 42);
  Alcotest.(check bool) "different seed, different delays" true
    (d1 <> delays 43);
  List.iteri
    (fun i d ->
      let expo = rcfg.Sh.Router.backoff_base_s *. (2.0 ** float_of_int i) in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d in jitter band" i)
        true
        (d <= rcfg.Sh.Router.backoff_max_s +. 1e-9
        && d >= Float.min rcfg.Sh.Router.backoff_max_s (0.75 *. expo) -. 1e-9))
    d1

let test_status_wire () =
  let statuses =
    [
      {
        Sh.Router.ss_name = "shard-0";
        ss_breaker = "closed";
        ss_routed = 12;
        ss_failures = 0;
        ss_rerouted = 0;
        ss_shed = 0;
        ss_state = "ready";
      };
      {
        Sh.Router.ss_name = "shard-1";
        ss_breaker = "open";
        ss_routed = 3;
        ss_failures = 7;
        ss_rerouted = 5;
        ss_shed = 2;
        ss_state = "unknown";
      };
    ]
  in
  Alcotest.(check bool) "status round-trips" true
    (Sh.Router.decode_status (Sh.Router.encode_status statuses)
    = Some statuses);
  Alcotest.(check bool) "empty fleet round-trips" true
    (Sh.Router.decode_status (Sh.Router.encode_status []) = Some []);
  Alcotest.(check bool) "junk rejected" true
    (Sh.Router.decode_status "junk" = None)

(* ---------------- hedging ---------------- *)

let key_owner names fname =
  let ring = Sh.Ring.create ~replicas:rcfg.Sh.Router.replicas names in
  Sh.Ring.lookup ring
    (Sh.Cache.request_key ~fingerprint:"fp-test" ~desc_hash:"dh-test" ~fname)

(* Hedging is on the decision clock, so the same seed gives byte-equal
   decision logs including the 'H' entries, and bit-identical replies
   from whichever leg wins. *)
let test_hedge_determinism () =
  let t = Lazy.force pipeline in
  let names = fnames t in
  let stalled = key_owner [ "a"; "b" ] (List.hd names) in
  let run () =
    let s0 = mk_server () and s1 = mk_server () in
    let router =
      mk_router
        ~config:{ rcfg with Sh.Router.hedge_after = 1 }
        [ Sh.Router.of_server ~name:"a" s0; Sh.Router.of_server ~name:"b" s1 ]
    in
    Sh.Router.mark_stalled router stalled;
    let replies = List.map (fun f -> Sh.Router.route router (mk f)) names in
    List.iter expect_done replies;
    let log = Sh.Router.decisions router in
    S.Server.drain s0;
    S.Server.drain s1;
    (log, List.map S.Proto.encode_reply replies)
  in
  let log1, replies1 = run () in
  let log2, replies2 = run () in
  Alcotest.(check string) "same seed, byte-equal decision logs" log1 log2;
  Alcotest.(check bool) "replies bit-identical across runs" true
    (replies1 = replies2);
  Alcotest.(check bool) "stalled owner's keys hedged" true
    (String.contains log1 'H');
  Alcotest.(check bool) "healthy owner's keys accepted normally" true
    (String.contains log1 'A');
  Alcotest.(check bool) "hedging is not rerouting" false
    (String.contains log1 'R')

(* A won hedge never double-decodes: the winning leg pays exactly one
   generation's decoder calls, and the idempotent cache key answers the
   repeat with zero decodes. *)
let test_hedge_cache_no_double_decode () =
  let t = Lazy.force pipeline in
  let base = V.Pipeline.retrieval_decoder t in
  let decodes = Atomic.make 0 in
  let counting fv =
    Atomic.incr decodes;
    base fv
  in
  let fname = List.hd (fnames t) in
  (* one generation's decode cost, measured on a solo server *)
  let solo = mk_server ~decoder:(Some counting) () in
  expect_done (S.Server.request solo (mk fname));
  let cost = Atomic.get decodes in
  S.Server.drain solo;
  Alcotest.(check bool) "generation reaches the decoder" true (cost > 0);
  let s0 = mk_server ~decoder:(Some counting) () in
  let s1 = mk_server ~decoder:(Some counting) () in
  let cache =
    Sh.Cache.create ~dir:(fresh_dir "hedgecache") ~fingerprint:"fp-test"
      ~desc_hash:"dh-test" ()
  in
  let router =
    mk_router
      ~config:{ rcfg with Sh.Router.hedge_after = 1 }
      ~cache
      [ Sh.Router.of_server ~name:"a" s0; Sh.Router.of_server ~name:"b" s1 ]
  in
  Sh.Router.mark_stalled router (key_owner [ "a"; "b" ] fname);
  Atomic.set decodes 0;
  let r1 = Sh.Router.route router (mk fname) in
  expect_done r1;
  Alcotest.(check string) "first request hedges" "H"
    (Sh.Router.decisions router);
  Alcotest.(check int) "won hedge pays one generation, not two" cost
    (Atomic.get decodes);
  (* the repeat: cache hit, zero decodes, bit-identical bytes *)
  let r2 = Sh.Router.route router (mk fname) in
  Alcotest.(check string) "repeat answered by the cache" "HC"
    (Sh.Router.decisions router);
  Alcotest.(check int) "no decode on the cached repeat" cost
    (Atomic.get decodes);
  Alcotest.(check bool) "cached reply bit-identical to the hedged one" true
    (S.Proto.encode_reply r2 = S.Proto.encode_reply r1);
  S.Server.drain s0;
  S.Server.drain s1

(* Three shards vs one server: same requests, bit-identical replies —
   sharding must not change a single generated byte. *)
let test_three_shard_parity () =
  let t = Lazy.force pipeline in
  let names = fnames t in
  let solo = mk_server () in
  let servers = List.init 3 (fun _ -> mk_server ()) in
  let eps =
    List.mapi
      (fun i srv -> Sh.Router.of_server ~name:(Printf.sprintf "shard-%d" i) srv)
      servers
  in
  let router = mk_router eps in
  List.iter
    (fun fname ->
      let direct = S.Server.request solo (mk fname) in
      let routed = Sh.Router.route router (mk fname) in
      expect_done routed;
      Alcotest.(check bool)
        (Printf.sprintf "%s identical through the router" fname)
        true
        (S.Proto.encode_reply direct = S.Proto.encode_reply routed))
    names;
  (* the work actually spread: more than one shard answered *)
  let busy =
    List.filter
      (fun (s : Sh.Router.shard_status) -> s.Sh.Router.ss_routed > 0)
      (Sh.Router.status router)
  in
  Alcotest.(check bool) "work spread across shards" true (List.length busy > 1);
  Alcotest.(check string) "all accepted at the owner"
    (String.make (List.length names) 'A')
    (Sh.Router.decisions router);
  S.Server.drain solo;
  Sh.Router.drain router

(* ---------------- streaming ladder ---------------- *)

(* Step a routed stream to its end: (statement frames, final verdict). *)
let drive_stream (s : S.Service.stream) =
  let rec go n =
    match s.S.Service.st_step () with
    | S.Server.Sstmt _ -> go (n + 1)
    | S.Server.Sdone r -> (n, r)
    | S.Server.Scancelled { at_stmt } ->
        (n, S.Proto.Rejected (S.Proto.Cancelled { at_stmt }))
  in
  go 0

(* The stepped streaming ladder keeps the blocking one's letters: 'R'
   around a dead owner with the live shard's frames relayed, 'C' from
   the cache with no frames, 'A' for the owner (also when cancelled),
   'D' when the leg dies after a relayed frame (no retry then) or no
   candidate answers, 'Q' for a quarantined owner under Shed. *)
let test_router_stream_ladder () =
  let t = Lazy.force pipeline in
  let _, busy = Lazy.force Test_stream.busiest_fname in
  let f = List.hd (fnames t) in
  let other = function "a" -> "b" | _ -> "a" in
  (* 'R' then 'C' *)
  let dead = key_owner [ "a"; "b" ] f in
  let live = mk_server () in
  let cache =
    Sh.Cache.create ~dir:(fresh_dir "streamcache") ~fingerprint:"fp-test"
      ~desc_hash:"dh-test" ()
  in
  let router =
    mk_router ~cache
      [ Sh.Router.of_server ~name:(other dead) live; dead_endpoint dead ]
  in
  let frames, reply = drive_stream (Sh.Router.stream router (mk f)) in
  expect_done reply;
  Alcotest.(check bool) "frames relayed from the live shard" true (frames > 0);
  let frames', reply' = drive_stream (Sh.Router.stream router (mk f)) in
  Alcotest.(check int) "a cache hit streams no frames" 0 frames';
  Alcotest.(check string) "the cache answers the same verdict"
    (S.Proto.encode_reply reply) (S.Proto.encode_reply reply');
  Alcotest.(check string) "rerouted, then cached" "RC"
    (Sh.Router.decisions router);
  S.Server.drain live;
  (* 'A', cancelled at the owner's next statement boundary *)
  let solo = mk_server () in
  let router = mk_router [ Sh.Router.of_server ~name:"solo" solo ] in
  let s = Sh.Router.stream router (mk busy) in
  (match s.S.Service.st_step () with
  | S.Server.Sstmt _ -> s.S.Service.st_cancel ()
  | _ -> Alcotest.fail "expected a first statement");
  (match drive_stream s with
  | _, S.Proto.Rejected (S.Proto.Cancelled _) -> ()
  | _, r -> Alcotest.failf "expected cancelled: %s" (S.Proto.encode_reply r));
  let h = S.Server.health solo in
  Alcotest.(check bool) "owner settled: busy 0, cancelled 1" true
    (h.S.Health.h_busy = 0 && h.S.Health.h_cancelled = 1);
  Alcotest.(check string) "cancelled at the owner" "A"
    (Sh.Router.decisions router);
  S.Server.drain solo;
  (* 'D' when the leg dies after its first relayed frame *)
  let owner = key_owner [ "a"; "b" ] busy in
  let dying = Sh.Router.of_server ~name:owner (mk_server ()) in
  let spare = mk_server () in
  let dies_after_one req =
    Result.map
      (fun (leg : S.Service.stream) ->
        let steps = ref 0 in
        {
          leg with
          S.Service.st_step =
            (fun () ->
              incr steps;
              if !steps > 1 then
                raise
                  (R.Fault.Fault
                     (R.Fault.Shard_failure { shard = owner; detail = "died" }))
              else leg.S.Service.st_step ());
        })
      (dying.Sh.Router.ep_stream req)
  in
  let router =
    mk_router
      [
        { dying with Sh.Router.ep_stream = dies_after_one };
        Sh.Router.of_server ~name:(other owner) spare;
      ]
  in
  (match drive_stream (Sh.Router.stream router (mk busy)) with
  | 1, S.Proto.Rejected (S.Proto.Shard_down { shard }) ->
      Alcotest.(check string) "shed names the owner" owner shard
  | n, r ->
      Alcotest.failf "expected one frame then shard-down, got %d then %s" n
        (S.Proto.encode_reply r));
  Alcotest.(check int) "no retry after a relayed frame" 0
    (S.Server.health spare).S.Health.h_accepted;
  Alcotest.(check string) "shed mid-stream" "D" (Sh.Router.decisions router);
  S.Server.drain spare;
  (* 'Q' for a quarantined owner under Shed, 'D' for a dead one *)
  let router =
    mk_router
      ~config:{ rcfg with Sh.Router.policy = Sh.Router.Shed }
      [ dead_endpoint "a"; dead_endpoint "b" ]
  in
  let owner_f = key_owner [ "a"; "b" ] f in
  Sh.Router.quarantine router owner_f ~crashes:3;
  let g = List.find (fun g -> key_owner [ "a"; "b" ] g <> owner_f) (fnames t) in
  (match drive_stream (Sh.Router.stream router (mk f)) with
  | 0, S.Proto.Rejected (S.Proto.Shard_quarantined _) -> ()
  | _, r -> Alcotest.failf "expected quarantined: %s" (S.Proto.encode_reply r));
  (match drive_stream (Sh.Router.stream router (mk g)) with
  | 0, S.Proto.Rejected (S.Proto.Shard_down _) -> ()
  | _, r -> Alcotest.failf "expected shard-down: %s" (S.Proto.encode_reply r));
  Alcotest.(check string) "quarantined, then shed" "QD"
    (Sh.Router.decisions router)

(* ---------------- router front door over a socket ---------------- *)

(* one statement boundary per tick, so a stream stays mid-decode for
   many loop iterations *)
let one_step = { S.Evloop.default_config with S.Evloop.ev_steps_per_tick = 1 }

let send_raw ~socket line =
  S.Sock.with_conn ~socket (fun fd _ ->
      S.Sock.write_line fd line;
      match S.Sock.read_bounded_line fd with
      | `Line reply -> S.Proto.decode_reply reply
      | `Eof | `Oversize _ -> S.Proto.Malformed)

let test_router_socket () =
  let t = Lazy.force pipeline in
  let _, busy = Lazy.force Test_stream.busiest_fname in
  let plain, cold =
    match List.filter (fun f -> f <> busy) (fnames t) with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "corpus has fewer than three functions"
  in
  let servers = List.init 2 (fun _ -> mk_server ()) in
  let router =
    mk_router
      (List.mapi
         (fun i srv -> Sh.Router.of_server ~name:(Printf.sprintf "s%d" i) srv)
         servers)
  in
  let fds_before = Test_stream.live_fds () in
  let socket = Test_stream.sock_path () in
  let l = Sh.Rsock.start ~cfg:one_step router ~path:socket in
  Alcotest.(check bool) "ping answers" true (S.Sock.ping ~socket ());
  (* a plain request over the socket equals the in-process route *)
  let in_proc = Sh.Router.route router (mk plain) in
  expect_done in_proc;
  Alcotest.(check string) "socket reply = in-process route"
    (S.Proto.encode_reply in_proc)
    (S.Proto.encode_reply (S.Sock.request ~socket (mk plain)));
  (match Sh.Rsock.shard_status ~socket with
  | Some rows ->
      Alcotest.(check int) "one status row per shard" 2 (List.length rows)
  | None -> Alcotest.fail "no shard table from the router");
  (* typed rejections for lines no router can serve *)
  let rejected what line check =
    match send_raw ~socket line with
    | S.Proto.Decoded (S.Proto.Rejected r) when check r -> ()
    | _ -> Alcotest.failf "%s must get its typed rejection" what
  in
  rejected "a garbage line" "complete garbage" (function
    | S.Proto.Bad_request _ -> true
    | _ -> false);
  rejected "a 2 MiB line" (String.make (2 * 1024 * 1024) 'A') (function
    | S.Proto.Oversize { limit; _ } -> limit = S.Sock.max_line_bytes
    | _ -> false);
  rejected "a version-99 line"
    (S.Proto.encode_command_at ~version:99 S.Proto.Cping)
    (function
      | S.Proto.Version_mismatch { got = 99; _ } -> true | _ -> false);
  rejected "cancel outside a stream"
    (S.Proto.encode_command S.Proto.Ccancel)
    (function S.Proto.Bad_request _ -> true | _ -> false);
  (* a cold stream relays the shard's frames live, in index order *)
  (match S.Sock.stream ~socket (mk cold) with
  | Error e -> Alcotest.failf "stream failed: %s" e
  | Ok frames -> (
      let stmts =
        List.filter_map
          (function
            | S.Proto.Fstmt f -> Some f.f_index | S.Proto.Ffinal _ -> None)
          frames
      in
      Alcotest.(check bool) "statement frames relayed" true (stmts <> []);
      List.iteri
        (fun i idx -> Alcotest.(check int) "frames in order" i idx)
        stmts;
      match List.rev frames with
      | S.Proto.Ffinal (S.Proto.Done _ as final) :: _ ->
          Alcotest.(check string) "streamed final = in-process route"
            (S.Proto.encode_reply (Sh.Router.route router (mk cold)))
            (S.Proto.encode_reply final)
      | _ -> Alcotest.fail "stream must end in a Done final"));
  (* a cancel frame reaches the owning shard's token *)
  (match S.Sock.stream ~socket ~cancel_after:1 (mk busy) with
  | Ok frames -> (
      match List.rev frames with
      | S.Proto.Ffinal (S.Proto.Rejected (S.Proto.Cancelled _)) :: _ -> ()
      | _ -> Alcotest.fail "expected a typed Cancelled final")
  | Error e -> Alcotest.failf "cancelled stream failed: %s" e);
  let hs = List.map S.Server.health servers in
  Alcotest.(check bool) "owning shard: busy 0, cancelled 1" true
    (List.for_all (fun h -> h.S.Health.h_busy = 0) hs
    && List.exists (fun h -> h.S.Health.h_cancelled = 1) hs);
  (match S.Sock.drain ~socket () with
  | Some h ->
      Alcotest.(check bool) "drained" true
        (h.S.Health.h_state = S.Health.Stopped)
  | None -> Alcotest.fail "no drain reply");
  S.Evloop.wait l;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket);
  Alcotest.(check int) "no file descriptors leaked" fds_before
    (Test_stream.live_fds ())

(* A stream through the router no longer holds the front door: a second
   connection is answered while the stream is mid-decode. *)
let test_router_stream_concurrent () =
  let t = Lazy.force pipeline in
  let n, busy = Lazy.force Test_stream.busiest_fname in
  let base = V.Pipeline.retrieval_decoder t in
  let slow fv =
    Unix.sleepf 0.02;
    base fv
  in
  let srv = mk_server ~decoder:(Some slow) () in
  let router = mk_router [ Sh.Router.of_server ~name:"s0" srv ] in
  let socket = Test_stream.sock_path () in
  let l = Sh.Rsock.start ~cfg:one_step router ~path:socket in
  S.Sock.with_conn ~socket (fun fd _ ->
      S.Sock.write_line fd (S.Proto.encode_command (S.Proto.Cstream (mk busy)));
      (match S.Sock.read_bounded_line fd with
      | `Line line -> (
          match S.Proto.decode_frame line with
          | S.Proto.Decoded (S.Proto.Fstmt _) -> ()
          | _ -> Alcotest.failf "expected a statement frame first: %s" line)
      | `Eof | `Oversize _ -> Alcotest.fail "stream closed before a frame");
      (match S.Sock.health ~timeout_s:10.0 ~socket () with
      | Some h ->
          Alcotest.(check int)
            (Printf.sprintf "answered mid-decode (%d statements)" n)
            1 h.S.Health.h_busy
      | None -> Alcotest.fail "no health reply while a stream is open");
      S.Sock.write_line fd (S.Proto.encode_command S.Proto.Ccancel);
      let rec final () =
        match S.Sock.read_bounded_line fd with
        | `Line line -> (
            match S.Proto.decode_frame line with
            | S.Proto.Decoded (S.Proto.Ffinal _) -> ()
            | _ -> final ())
        | `Eof | `Oversize _ -> Alcotest.fail "no final frame"
      in
      final ());
  Sh.Rsock.stop l;
  Alcotest.(check int) "stream settled" 0 (S.Server.health srv).S.Health.h_busy

(* Poll a shard until [pred] holds on its health. *)
let await_health srv what pred =
  let deadline = Unix.gettimeofday () +. 30.0 in
  while not (pred (S.Server.health srv)) do
    if Unix.gettimeofday () > deadline then Alcotest.failf "never %s" what;
    Unix.sleepf 0.001
  done

(* A router over one shard whose decoder takes 20 ms a statement. *)
let slow_router () =
  let t = Lazy.force pipeline in
  let base = V.Pipeline.retrieval_decoder t in
  let slow fv =
    Unix.sleepf 0.02;
    base fv
  in
  let srv = mk_server ~decoder:(Some slow) () in
  (srv, mk_router [ Sh.Router.of_server ~name:"s0" srv ])

(* A cold plain request through the router is stepped like a stream, so
   it no longer holds the front door: a second connection's health is
   answered while it decodes, and its reply equals the in-process
   route. *)
let test_router_plain_concurrent () =
  let _, busy = Lazy.force Test_stream.busiest_fname in
  let srv, router = slow_router () in
  let socket = Test_stream.sock_path () in
  let l = Sh.Rsock.start ~cfg:one_step router ~path:socket in
  let plain =
    Domain.spawn (fun () -> S.Sock.request ~timeout_s:60.0 ~socket (mk busy))
  in
  await_health srv "reached the shard" (fun h -> h.S.Health.h_busy = 1);
  (match S.Sock.health ~timeout_s:10.0 ~socket () with
  | Some h ->
      Alcotest.(check int) "health answered mid-decode" 1 h.S.Health.h_busy
  | None -> Alcotest.fail "no health reply while a plain request decodes");
  let reply = Domain.join plain in
  expect_done reply;
  Sh.Rsock.stop l;
  let fresh = mk_server () in
  let in_proc =
    Sh.Router.route
      (mk_router [ Sh.Router.of_server ~name:"s0" fresh ])
      (mk busy)
  in
  Alcotest.(check string) "socket reply = in-process route"
    (S.Proto.encode_reply in_proc)
    (S.Proto.encode_reply reply);
  S.Server.drain fresh

(* A plain request is cancellable too: a client that half-closes
   mid-decode reaches the owning shard's token, and the shard settles
   the request as cancelled. *)
let test_router_plain_half_close () =
  let _, busy = Lazy.force Test_stream.busiest_fname in
  let srv, router = slow_router () in
  let socket = Test_stream.sock_path () in
  let l = Sh.Rsock.start ~cfg:one_step router ~path:socket in
  S.Sock.with_conn ~timeout_s:60.0 ~socket (fun fd deadline ->
      S.Sock.write_line fd (S.Proto.encode_command (S.Proto.Creq (mk busy)));
      await_health srv "reached the shard" (fun h -> h.S.Health.h_busy = 1);
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      match S.Sock.read_bounded_line ?deadline fd with
      | `Line line -> (
          match S.Proto.decode_reply line with
          | S.Proto.Decoded (S.Proto.Rejected (S.Proto.Cancelled _)) -> ()
          | _ ->
              Alcotest.failf "expected a cancelled reply: %s"
                (String.sub line 0 (min 60 (String.length line))))
      | `Eof | `Oversize _ -> Alcotest.fail "no reply after the half-close");
  await_health srv "settled" (fun h -> h.S.Health.h_busy = 0);
  let h = S.Server.health srv in
  Alcotest.(check (pair int int)) "shard: cancelled 1, busy 0" (1, 0)
    (h.S.Health.h_cancelled, h.S.Health.h_busy);
  Sh.Rsock.stop l

(* Drain through the router: its in-flight streams finish on the shard
   before the router drains it. *)
let test_router_drain_in_flight () =
  Test_stream.drain_in_flight ~start:(fun ~cfg srv ~path ->
      Sh.Rsock.start ~cfg (mk_router [ Sh.Router.of_server ~name:"s0" srv ]) ~path)

let suite =
  [
    Alcotest.test_case "ring basics" `Quick test_ring_basics;
    Alcotest.test_case "ring balance (fixed)" `Quick test_ring_balance_fixed;
    QCheck_alcotest.to_alcotest qcheck_balance;
    QCheck_alcotest.to_alcotest qcheck_minimal_disruption;
    QCheck_alcotest.to_alcotest qcheck_add_disruption;
    Alcotest.test_case "cache round-trip" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache corrupt entry" `Quick test_cache_corrupt_entry;
    Alcotest.test_case "cache-hit zero decodes" `Quick test_cache_zero_decodes;
    Alcotest.test_case "reroute vs shed" `Quick test_router_reroute_vs_shed;
    Alcotest.test_case "circuit breaker" `Quick test_router_breaker;
    Alcotest.test_case "breaker transition table" `Quick
      test_breaker_transition_table;
    Alcotest.test_case "breaker stops retries" `Quick
      test_breaker_stops_retries;
    Alcotest.test_case "backoff determinism" `Quick
      test_router_backoff_determinism;
    Alcotest.test_case "status wire format" `Quick test_status_wire;
    Alcotest.test_case "hedging determinism" `Quick test_hedge_determinism;
    Alcotest.test_case "hedge never double-decodes" `Quick
      test_hedge_cache_no_double_decode;
    Alcotest.test_case "three-shard parity" `Quick test_three_shard_parity;
    Alcotest.test_case "router stream ladder letters" `Quick
      test_router_stream_ladder;
    Alcotest.test_case "router front door over a socket" `Quick
      test_router_socket;
    Alcotest.test_case "router stream does not block the front door" `Quick
      test_router_stream_concurrent;
    Alcotest.test_case "router drain finishes in-flight streams" `Quick
      test_router_drain_in_flight;
    Alcotest.test_case "plain router request does not block the front door"
      `Quick test_router_plain_concurrent;
    Alcotest.test_case "plain router request cancels on half-close" `Quick
      test_router_plain_half_close;
  ]
