(* Tests for the fleet supervisor: health-probed crash detection and
   journal respawn, stall classification + hedging, the flap detector
   (unit + qcheck property over random crash schedules) with live-ring
   quarantine and the typed rejection, decision/event-log determinism,
   and the Sock connect/read deadline against a wedged socket. *)

module V = Vega
module R = Vega_robust
module S = Vega_serve
module Sh = Vega_shard
module F = Vega_fleet.Fleet

let target = "RISCV"
let pipeline = Test_robust.pipeline

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "vega_fleet_%d_%s%d" (Unix.getpid ()) name !n)
    in
    if not (Sys.file_exists d) then Unix.mkdir d 0o755;
    d

let mk fname =
  {
    S.Proto.rq_client = "t";
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

(* Aggressive fleet clock so the tiny corpus is enough to exercise the
   whole lifecycle: probe every 2 decisions, stall after 2 losses,
   quarantine on 3 crashes, ~1-decision respawn backoff. *)
let fcfg =
  {
    F.default_config with
    F.probe_every = 2;
    probe_patience = 2;
    flap_k = 3;
    flap_window = 256;
    backoff_base = 1;
    seed = 99;
  }

let frcfg =
  {
    Sh.Router.default_config with
    Sh.Router.retries = 0;
    probe_every = 0;
    breaker_threshold = 2;
    breaker_cooldown = 4;
    hedge_after = 2;
    seed = 77;
  }

let expect_done = function
  | S.Proto.Done _ -> ()
  | S.Proto.Rejected r ->
      Alcotest.failf "rejected: %s" (S.Proto.reject_to_string r)
  | S.Proto.Failed m -> Alcotest.failf "failed: %s" m

let contains_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The same pure ring the router builds, to name each key's owner. *)
let owner_of ~shards fname =
  let ring =
    Sh.Ring.create
      ~replicas:Sh.Router.default_config.Sh.Router.replicas
      (List.init shards (Printf.sprintf "shard-%d"))
  in
  Sh.Ring.lookup ring
    (Sh.Cache.request_key ~fingerprint:"fp-fleet" ~desc_hash:"dh-fleet" ~fname)

(* A fleet over per-shard run-dir segments. [kill i epoch] arms a
   journal crash; [refuse_respawn i] makes every respawn attempt fail,
   turning the shard into a crash-looper. *)
let mk_fleet ?(config = fcfg) ?(rconfig = frcfg) ?wrap_endpoint ?wrap_probe
    ?(kill = fun _ _ -> None) ?(refuse_respawn = fun _ -> false) ~base n =
  let t = Lazy.force pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let specs =
    List.init n (fun i ->
        let dir = Sh.Router.shard_run_dir base i in
        {
          F.sp_name = Printf.sprintf "shard-%d" i;
          sp_spawn =
            (fun ~epoch ~resume ->
              if resume && refuse_respawn i then
                Error "respawn refused (injected)"
              else
                S.Server.create ~config:tcfg ~run_dir:dir ~resume
                  ?kill_at:(kill i epoch) ~epoch t ~target ~decoder);
        })
  in
  match
    F.create ~config ~router_config:rconfig ?wrap_endpoint ?wrap_probe
      ~fingerprint:"fp-fleet" ~desc_hash:"dh-fleet" specs
  with
  | Ok f -> f
  | Error e -> Alcotest.failf "fleet create failed: %s" e

(* ---------------- crash -> probe -> respawn ---------------- *)

(* Kill one shard's journal mid-storm: the probe sweep classifies it
   Crashed, a budgeted respawn resumes it from its own journal into
   epoch 1, and the whole story — decisions and fleet events — replays
   byte-identically under the same seed. *)
let test_crash_respawn () =
  let t = Lazy.force pipeline in
  let names = fnames t in
  let stream = List.concat (List.init 6 (fun _ -> names)) in
  (* the victim owns the first function, so the armed kill must fire *)
  let victim = owner_of ~shards:2 (List.hd names) in
  let vi = if victim = "shard-0" then 0 else 1 in
  let run tag =
    let base = fresh_dir ("respawn" ^ tag) in
    let fleet =
      mk_fleet
        ~kill:(fun i epoch -> if i = vi && epoch = 0 then Some 2 else None)
        ~base 2
    in
    let replies = List.map (fun f -> F.request fleet (mk f)) stream in
    List.iter expect_done replies;
    (* a version-skewed peer gets the typed mismatch, not a parse fault *)
    (match
       S.Proto.decode_reply
         (Vega_chaos.Ctx.route_line (F.router fleet)
            (S.Proto.encode_command_at ~version:99
               (S.Proto.Creq (mk (List.hd names)))))
     with
    | S.Proto.Decoded
        (S.Proto.Rejected (S.Proto.Version_mismatch { got = 99; want })) ->
        Alcotest.(check int) "mismatch names our version" S.Proto.version want
    | _ -> Alcotest.fail "skewed line not answered with version-mismatch");
    let out =
      ( Sh.Router.decisions (F.router fleet),
        F.event_log fleet,
        F.epoch fleet victim,
        F.shard_class fleet victim,
        R.Report.count_class (F.report fleet) R.Fault.Cshard )
    in
    F.drain fleet;
    out
  in
  let log, ev, epoch, cls, cshard = run "a" in
  Alcotest.(check int) "victim respawned into epoch 1" 1 epoch;
  Alcotest.(check bool) "victim healthy again" true (cls = F.Healthy);
  Alcotest.(check bool) "crash recorded as a shard fault" true (cshard > 0);
  Alcotest.(check bool) "crash event logged" true
    (contains_sub ev ("K" ^ victim));
  Alcotest.(check bool) "respawn scheduled with a backoff" true
    (contains_sub ev ("B" ^ victim));
  Alcotest.(check bool) "respawn event logged" true
    (contains_sub ev ("R" ^ victim));
  Alcotest.(check bool) "victim's keys rerouted while it was down" true
    (String.contains log 'R');
  (* same seed, fresh directories: byte-equal decision and event logs *)
  let log2, ev2, _, _, _ = run "b" in
  Alcotest.(check string) "decision log byte-equal across repeats" log log2;
  Alcotest.(check string) "event log byte-equal across repeats" ev ev2

(* ---------------- probe loss -> stall -> hedge -> clear ------------ *)

let test_stall_hedge_clear () =
  let t = Lazy.force pipeline in
  let names = fnames t in
  let victim = owner_of ~shards:2 (List.hd names) in
  let dropping = ref true in
  let base = fresh_dir "stall" in
  let fleet =
    mk_fleet
      ~wrap_probe:(fun shard probe ->
        if !dropping && shard = victim then None else probe ())
      ~base 2
  in
  let stream = List.concat (List.init 4 (fun _ -> names)) in
  let replies = List.map (fun f -> F.request fleet (mk f)) stream in
  List.iter expect_done replies;
  Alcotest.(check bool) "victim classified stalled" true
    (F.shard_class fleet victim = F.Stalled);
  let ev = F.event_log fleet in
  Alcotest.(check bool) "probe losses logged" true
    (contains_sub ev ("L" ^ victim));
  Alcotest.(check bool) "stall marked" true (contains_sub ev ("S" ^ victim));
  Alcotest.(check bool) "stall recorded as a typed fault" true
    (R.Report.count_class (F.report fleet) R.Fault.Cstall >= 1);
  Alcotest.(check bool) "probe losses recorded as typed faults" true
    (R.Report.count_class (F.report fleet) R.Fault.Cprobe >= 1);
  (* owned requests past the budget hedge to the ring successor *)
  let log = Sh.Router.decisions (F.router fleet) in
  Alcotest.(check bool) "hedge decisions logged" true (String.contains log 'H');
  Alcotest.(check bool) "hedges counted" true
    ((Sh.Router.counters (F.router fleet)).Sh.Router.rt_hedges > 0);
  (* the probes come back: the stall clears and the owner serves again *)
  dropping := false;
  List.iter (fun f -> expect_done (F.request fleet (mk f))) names;
  Alcotest.(check bool) "stall cleared" true
    (F.shard_class fleet victim = F.Healthy);
  Alcotest.(check bool) "clear event logged" true
    (contains_sub (F.event_log fleet) ("C" ^ victim));
  let before = String.length (Sh.Router.decisions (F.router fleet)) in
  List.iter (fun f -> expect_done (F.request fleet (mk f))) names;
  let log' = Sh.Router.decisions (F.router fleet) in
  let tail = String.sub log' before (String.length log' - before) in
  Alcotest.(check bool) "no hedging once the stall has cleared" false
    (String.contains tail 'H');
  F.drain fleet

(* ---------------- flap detector -> quarantine ---------------- *)

(* The victim crashes, then every respawn attempt is refused: after
   flap_k crashes inside the window the fleet quarantines it. Under
   Reroute its keys keep succeeding and the corpse never sees another
   request; under Shed they get the typed Shard_quarantined rejection.
   Either way no raw exception escapes the router. *)
let test_flap_quarantine () =
  let t = Lazy.force pipeline in
  let names = fnames t in
  let victim = owner_of ~shards:3 (List.hd names) in
  let vi = int_of_string (String.sub victim 6 (String.length victim - 6)) in
  let run ~policy ~base =
    let requests = Hashtbl.create 4 in
    let hits name = Option.value ~default:0 (Hashtbl.find_opt requests name) in
    let wrap_endpoint name ep =
      {
        ep with
        Sh.Router.ep_stream =
          (fun req ->
            Hashtbl.replace requests name (hits name + 1);
            ep.Sh.Router.ep_stream req);
      }
    in
    let fleet =
      mk_fleet
        ~rconfig:{ frcfg with Sh.Router.policy }
        ~kill:(fun i epoch -> if i = vi && epoch = 0 then Some 2 else None)
        ~refuse_respawn:(fun i -> i = vi)
        ~wrap_endpoint ~base 3
    in
    let stream = List.concat (List.init 6 (fun _ -> names)) in
    let replies = List.map (fun f -> F.request fleet (mk f)) stream in
    (fleet, replies, hits)
  in
  (* Reroute: the crash-looper is quarantined, its keys keep landing *)
  let fleet, replies, hits = run ~policy:Sh.Router.Reroute ~base:(fresh_dir "flapr") in
  List.iter expect_done replies;
  Alcotest.(check bool) "victim quarantined" true
    (List.mem_assoc victim (F.quarantined fleet));
  Alcotest.(check bool) "victim classified flapping" true
    (F.shard_class fleet victim = F.Flapping);
  Alcotest.(check int) "one flap fault recorded" 1
    (R.Report.count_class (F.report fleet) R.Fault.Cflap);
  Alcotest.(check bool) "quarantine event logged" true
    (contains_sub (F.event_log fleet) ("Q" ^ victim));
  Alcotest.(check bool) "vnodes removed from the live ring" false
    (List.mem victim (Sh.Router.live_shards (F.router fleet)));
  (* a quarantined shard never receives traffic again *)
  let frozen = hits victim in
  List.iter (fun f -> expect_done (F.request fleet (mk f))) names;
  Alcotest.(check int) "no traffic after quarantine" frozen (hits victim);
  F.drain fleet;
  (* Shed: the victim's keys get the typed quarantine rejection *)
  let fleet', replies', _ = run ~policy:Sh.Router.Shed ~base:(fresh_dir "flaps") in
  List.iter
    (function
      | S.Proto.Done _ | S.Proto.Rejected _ -> ()
      | S.Proto.Failed m -> Alcotest.failf "raw failure escaped: %s" m)
    replies';
  let tail = List.map (fun f -> F.request fleet' (mk f)) names in
  let qrej =
    List.filter
      (function
        | S.Proto.Rejected (S.Proto.Shard_quarantined { shard; crashes }) ->
            Alcotest.(check string) "rejection names the true owner" victim
              shard;
            Alcotest.(check bool) "rejection carries the crash count" true
              (crashes >= fcfg.F.flap_k);
            true
        | _ -> false)
      (replies' @ tail)
  in
  Alcotest.(check bool) "typed quarantine rejections answered" true (qrej <> []);
  Alcotest.(check bool) "'Q' decisions logged" true
    (String.contains (Sh.Router.decisions (F.router fleet')) 'Q');
  F.drain fleet'

(* qcheck: the flap detector trips iff >= k crashes fall inside the
   window, for random crash schedules — and widening the window never
   untrips it. *)
let qcheck_flap_detector =
  QCheck.Test.make
    ~name:"flap detector trips iff >=k crashes inside the window" ~count:300
    (QCheck.quad (QCheck.int_range 1 5) (QCheck.int_range 1 60)
       (QCheck.int_range 0 200)
       (QCheck.list_of_size (QCheck.Gen.int_range 0 15)
          (QCheck.int_range 0 250)))
    (fun (k, window, now, crashes) ->
      let inside =
        List.fold_left
          (fun acc c -> if c <= now && now - c < window then acc + 1 else acc)
          0 crashes
      in
      let trips = F.flaps ~k ~window ~now crashes in
      trips = (inside >= k)
      && ((not trips) || F.flaps ~k ~window:(window + 17) ~now crashes))

(* ---------------- Sock deadline against a wedged socket ------------ *)

(* A listener that never accepts: connects land in the backlog and
   reads hang forever. The deadline must surface a typed timeout —
   never wedge the probe or the hedged call. *)
let test_sock_deadline () =
  let dir = fresh_dir "sockdl" in
  let path = Filename.concat dir "wedged.sock" in
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 1;
  Fun.protect
    ~finally:(fun () ->
      Unix.close srv;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      (match S.Sock.request ~timeout_s:0.2 ~socket:path (mk "f") with
      | S.Proto.Failed m ->
          Alcotest.(check bool) "failure names the timeout" true
            (contains_sub m "timed out")
      | _ -> Alcotest.fail "request against a wedged socket must fail");
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "deadline honoured, not instant" true
        (dt >= 0.15 && dt < 5.0);
      Alcotest.(check bool) "health probe answers None" true
        (S.Sock.health ~timeout_s:0.1 ~socket:path () = None);
      Alcotest.(check bool) "ping answers false" false
        (S.Sock.ping ~timeout_s:0.1 ~socket:path ()))

let suite =
  [
    Alcotest.test_case "crash, probe, respawn (deterministic)" `Quick
      test_crash_respawn;
    Alcotest.test_case "stall, hedge, clear" `Quick test_stall_hedge_clear;
    Alcotest.test_case "flap detector quarantines" `Quick test_flap_quarantine;
    QCheck_alcotest.to_alcotest qcheck_flap_detector;
    Alcotest.test_case "sock deadline on a wedged socket" `Quick
      test_sock_deadline;
  ]
