(* Fleet supervisor: the shard lifecycle as a supervised object.

   PR 7's router treats shard death as terminal — the breaker marks the
   corpse and reroutes forever. This module owns the whole lifecycle:

   - *Health probing.* Every [probe_every] router decisions the fleet
     sweeps the shards with the same `Chealth` snapshot the socket
     protocol carries (state + journal lag). The schedule is counted in
     decisions, not wall clock, so a run's probe points — and
     everything they trigger — replay bit-identically under one seed.

   - *Classification.* A probe that answers Stopped is a Crash; a probe
     that is dropped or unanswered [probe_patience] sweeps in a row is
     a Stall (the shard is alive but wedged — hedging territory, not
     respawn territory); a shard that crashes [flap_k] times inside a
     [flap_window]-decision window is Flapping. Each classification is
     a typed {!Vega_robust.Fault} recorded in the run report.

   - *Respawn from journal.* A crashed shard is restarted against its
     own run-dir segment via the caller-supplied spawn closure with
     [resume:true], so PR 3 torn-tail recovery replays its journal and
     the respawned shard resumes bit-identically. Restarts are budgeted
     with seeded exponential backoff counted in decisions; the flap
     detector quarantines a crash-looper instead of burning the budget.

   - *Live ring reconfiguration.* Quarantine removes the shard's vnodes
     from the router's live ring (minimal key movement, the Ring.add /
     Ring.remove symmetry); its keys either reroute — warm-starting
     from the content-addressed cache, never re-decoding what was
     already generated — or, under Shed policy, answer a typed
     [Shard_quarantined] rejection. A quarantined shard holds no vnodes
     and can never receive traffic again.

   Determinism is the design invariant throughout: probes, backoff,
   flap windows and hedge budgets are all functions of the router's
   decision counter and the seed, never of wall clock. *)

module Fault = Vega_robust.Fault
module Report = Vega_robust.Report
module J = Vega_robust.Journal
module Rng = Vega_util.Rng
module Health = Vega_serve.Health
module Server = Vega_serve.Server
module Router = Vega_shard.Router
module Cache = Vega_shard.Cache

type config = {
  probe_every : int;  (* probe sweep every N router decisions *)
  probe_patience : int;  (* consecutive lost probes before Stalled *)
  flap_k : int;  (* crashes inside the window that quarantine *)
  flap_window : int;  (* flap-detector window, in router decisions *)
  max_respawns : int;  (* respawn budget per shard before quarantine *)
  backoff_base : int;  (* respawn delay unit, in router decisions *)
  seed : int;  (* respawn-jitter streams *)
}

let default_config =
  {
    probe_every = 4;
    probe_patience = 2;
    flap_k = 3;
    flap_window = 64;
    max_respawns = 8;
    backoff_base = 2;
    seed = 0xf1ee7;
  }

(* The flap detector as a pure function, so qcheck can hammer it with
   random crash schedules: quarantine iff at least [k] crashes fall
   inside the last [window] decisions (inclusive lower edge). *)
let flaps ~k ~window ~now crashes =
  let inside = List.filter (fun c -> c <= now && now - c < window) crashes in
  List.length inside >= k

type shard_class = Healthy | Crashed | Stalled | Flapping

let class_name = function
  | Healthy -> "healthy"
  | Crashed -> "crashed"
  | Stalled -> "stalled"
  | Flapping -> "flapping"

(* Everything the fleet ever does is an event on the decision clock;
   [event_log] renders them as a compact string two runs can compare
   byte-for-byte (the chaos-soak invariant). *)
type event =
  | Crash_detected of { shard : string; decision : int }
  | Respawn_scheduled of { shard : string; due : int; attempt : int }
  | Respawned of { shard : string; decision : int; epoch : int }
  | Probe_lost of { shard : string; decision : int }
  | Stall_marked of { shard : string; decision : int }
  | Stall_cleared of { shard : string; decision : int }
  | Quarantined of { shard : string; crashes : int; decision : int }

let event_string = function
  | Crash_detected { shard; decision } -> Printf.sprintf "K%s@%d" shard decision
  | Respawn_scheduled { shard; due; attempt } ->
      Printf.sprintf "B%s@%d#%d" shard due attempt
  | Respawned { shard; decision; epoch } ->
      Printf.sprintf "R%s@%d#%d" shard decision epoch
  | Probe_lost { shard; decision } -> Printf.sprintf "L%s@%d" shard decision
  | Stall_marked { shard; decision } -> Printf.sprintf "S%s@%d" shard decision
  | Stall_cleared { shard; decision } -> Printf.sprintf "C%s@%d" shard decision
  | Quarantined { shard; crashes; decision } ->
      Printf.sprintf "Q%s@%d#%d" shard decision crashes

(* A shard slot: the spawn closure is the only thing the fleet needs
   from the outside — it builds (or resumes) the shard's server against
   the shard's own run-dir segment. [epoch] stamps the respawn
   generation into the server's health snapshot. *)
type spec = {
  sp_name : string;
  sp_spawn : epoch:int -> resume:bool -> (Server.t, string) result;
}

type slot = {
  sl_name : string;
  sl_spawn : epoch:int -> resume:bool -> (Server.t, string) result;
  sl_rng : Rng.t;  (* respawn-jitter stream, seeded per slot *)
  mutable sl_server : Server.t option;
  mutable sl_endpoint : Router.endpoint;
  mutable sl_epoch : int;
  mutable sl_class : shard_class;
  mutable sl_crashes : int list;  (* decision indices, newest first *)
  mutable sl_respawn_at : int option;  (* decision the respawn is due *)
  mutable sl_probe_misses : int;  (* consecutive lost probes *)
  mutable sl_quarantined : bool;
}

type t = {
  cfg : config;
  router : Router.t;
  slots : (string, slot) Hashtbl.t;
  order : string list;
  report : Report.t;
  wrap_endpoint : string -> Router.endpoint -> Router.endpoint;
  wrap_probe :
    string -> (unit -> Health.snapshot option) -> Health.snapshot option;
  mutable last_probe : int;  (* decision index of the last sweep *)
  mutable events : event list;  (* newest first *)
}

let slot t name = Hashtbl.find t.slots name

let push t ev = t.events <- ev :: t.events

let events t = List.rev t.events

let event_log t =
  String.concat " " (List.map event_string (events t))

let router t = t.router
let report t = t.report
let quarantined t = Router.quarantined t.router

let servers t =
  List.filter_map
    (fun name ->
      Option.map (fun srv -> (name, srv)) (slot t name).sl_server)
    t.order

let shard_class t name = (slot t name).sl_class
let epoch t name = (slot t name).sl_epoch

(* ---- creation ---- *)

let create ?(config = default_config) ?router_config ?cache ?report ?sleep
    ?(wrap_endpoint = fun _ ep -> ep) ?(wrap_probe = fun _ probe -> probe ())
    ~fingerprint ~desc_hash specs =
  let report = match report with Some r -> r | None -> Report.create () in
  let boot =
    List.fold_left
      (fun acc spec ->
        match acc with
        | Error _ as e -> e
        | Ok slots -> (
            match spec.sp_spawn ~epoch:0 ~resume:false with
            | Error e ->
                Error (Printf.sprintf "shard %s failed to boot: %s" spec.sp_name e)
            | Ok srv -> Ok ((spec, srv) :: slots)))
      (Ok []) specs
    |> Result.map List.rev
  in
  match boot with
  | Error _ as e -> e
  | Ok booted -> (
      let endpoints =
        List.map
          (fun (spec, srv) ->
            wrap_endpoint spec.sp_name
              (Router.of_server ~name:spec.sp_name srv))
          booted
      in
      match
        Router.create ?config:router_config ?cache ~report ?sleep ~fingerprint
          ~desc_hash endpoints
      with
      | Error _ as e -> e
      | Ok router ->
          let slots = Hashtbl.create 8 in
          List.iteri
            (fun i ((spec, srv), ep) ->
              Hashtbl.replace slots spec.sp_name
                {
                  sl_name = spec.sp_name;
                  sl_spawn = spec.sp_spawn;
                  sl_rng = Rng.create (Rng.index_seed config.seed i);
                  sl_server = Some srv;
                  sl_endpoint = ep;
                  sl_epoch = 0;
                  sl_class = Healthy;
                  sl_crashes = [];
                  sl_respawn_at = None;
                  sl_probe_misses = 0;
                  sl_quarantined = false;
                })
            (List.combine booted endpoints);
          Ok
            {
              cfg = config;
              router;
              slots;
              order = List.map (fun (spec, _) -> spec.sp_name) booted;
              report;
              wrap_endpoint;
              wrap_probe;
              last_probe = 0;
              events = [];
            })

(* ---- classification and repair ---- *)

(* Seeded exponential backoff in decisions: base * 2^attempt plus a
   jitter draw from the slot's stream, capped — deterministic, like
   everything on this clock. *)
let respawn_delay t s ~attempt =
  let expo = t.cfg.backoff_base * (1 lsl min attempt 8) in
  min (expo + Rng.int s.sl_rng (max 1 t.cfg.backoff_base)) 1024

let quarantine t s ~now =
  let in_window =
    List.length
      (List.filter (fun c -> now - c < t.cfg.flap_window) s.sl_crashes)
  in
  s.sl_quarantined <- true;
  s.sl_class <- Flapping;
  s.sl_respawn_at <- None;
  Report.record t.report ~stage:"fleet"
    (Fault.Shard_flapping
       { shard = s.sl_name; crashes = in_window; window = t.cfg.flap_window });
  Router.quarantine t.router s.sl_name ~crashes:(List.length s.sl_crashes);
  push t (Quarantined { shard = s.sl_name; crashes = in_window; decision = now })

(* A crash was observed (probe answered Stopped, or a respawn attempt
   itself failed): either quarantine — flap window tripped or respawn
   budget spent — or schedule a budgeted respawn. *)
let crash_detected t s ~now =
  s.sl_crashes <- now :: s.sl_crashes;
  s.sl_class <- Crashed;
  Report.record t.report ~stage:"fleet"
    (Fault.Shard_failure
       { shard = s.sl_name; detail = "health probe: shard stopped" });
  push t (Crash_detected { shard = s.sl_name; decision = now });
  let attempt = s.sl_epoch in
  if
    flaps ~k:t.cfg.flap_k ~window:t.cfg.flap_window ~now s.sl_crashes
    || attempt >= t.cfg.max_respawns
  then quarantine t s ~now
  else begin
    let due = now + respawn_delay t s ~attempt in
    s.sl_respawn_at <- Some due;
    push t (Respawn_scheduled { shard = s.sl_name; due; attempt })
  end

(* Respawn: retire the corpse (drain closes its journal; the Killed
   it re-raises *is* the crash being recovered from), then spawn
   a fresh server on the same run-dir segment with [resume:true] — the
   journal replay makes the restart bit-identical — and swap the new
   endpoint into the router in place. *)
let respawn t s ~now =
  s.sl_respawn_at <- None;
  (match s.sl_server with
  | Some srv -> ( try Server.drain srv with J.Killed _ | Fault.Fault _ -> ())
  | None -> ());
  s.sl_server <- None;
  match s.sl_spawn ~epoch:(s.sl_epoch + 1) ~resume:true with
  | Ok srv ->
      let ep = t.wrap_endpoint s.sl_name (Router.of_server ~name:s.sl_name srv) in
      s.sl_server <- Some srv;
      s.sl_endpoint <- ep;
      s.sl_epoch <- s.sl_epoch + 1;
      s.sl_class <- Healthy;
      s.sl_probe_misses <- 0;
      Router.replace_endpoint t.router s.sl_name ep;
      push t (Respawned { shard = s.sl_name; decision = now; epoch = s.sl_epoch })
  | Error detail ->
      Report.record t.report ~stage:"fleet"
        (Fault.Shard_failure { shard = s.sl_name; detail });
      crash_detected t s ~now

let mark_stalled t s ~now =
  if s.sl_class <> Stalled then begin
    s.sl_class <- Stalled;
    Report.record t.report ~stage:"fleet"
      (Fault.Shard_stalled
         {
           shard = s.sl_name;
           decisions = s.sl_probe_misses * t.cfg.probe_every;
         });
    Router.mark_stalled t.router s.sl_name;
    push t (Stall_marked { shard = s.sl_name; decision = now })
  end

let probe_slot t s ~now =
  let probe () = s.sl_endpoint.Router.ep_health () in
  match t.wrap_probe s.sl_name probe with
  | Some h -> (
      s.sl_probe_misses <- 0;
      match h.Health.h_state with
      | Health.Ready ->
          if s.sl_class = Stalled then begin
            Router.clear_stalled t.router s.sl_name;
            push t (Stall_cleared { shard = s.sl_name; decision = now })
          end;
          if s.sl_class <> Crashed || s.sl_respawn_at = None then
            s.sl_class <- Healthy
      | Health.Starting | Health.Draining ->
          (* transitional: neither crash nor stall evidence *)
          ()
      | Health.Stopped ->
          (* don't re-count the same corpse while its respawn is pending *)
          if s.sl_class <> Crashed then crash_detected t s ~now)
  | None ->
      (* unanswered probe: tolerated until patience runs out, then the
         shard is classified stalled — alive but wedged, so hedge
         around it rather than respawn it *)
      Report.record t.report ~stage:"fleet"
        (Fault.Probe_loss { shard = s.sl_name; detail = "probe unanswered" });
      push t (Probe_lost { shard = s.sl_name; decision = now });
      s.sl_probe_misses <- s.sl_probe_misses + 1;
      if s.sl_probe_misses >= t.cfg.probe_patience then mark_stalled t s ~now
  | exception Fault.Fault (Fault.Probe_loss _ as f) ->
      (* an injected probe drop: same tolerance as an unanswered one *)
      Report.record t.report ~stage:"fleet-probe" f;
      push t (Probe_lost { shard = s.sl_name; decision = now });
      s.sl_probe_misses <- s.sl_probe_misses + 1;
      if s.sl_probe_misses >= t.cfg.probe_patience then mark_stalled t s ~now

(* One supervisor tick: fire due respawns, then the probe sweep when
   the schedule says so. Both are driven purely by the router's
   decision counter — calling [tick] more often never changes what
   happens, only when it is noticed. *)
let tick t =
  let now = Router.decision_count t.router in
  List.iter
    (fun name ->
      let s = slot t name in
      if not s.sl_quarantined then
        match s.sl_respawn_at with
        | Some due when now >= due -> respawn t s ~now
        | _ -> ())
    t.order;
  if t.cfg.probe_every > 0 && now - t.last_probe >= t.cfg.probe_every then begin
    t.last_probe <- now;
    List.iter
      (fun name ->
        let s = slot t name in
        if not s.sl_quarantined then probe_slot t s ~now)
      t.order
  end

(* ---- front door ---- *)

let request t req =
  tick t;
  Router.route t.router req

let health t =
  tick t;
  Router.health t.router

(* Drain the live fleet for shutdown/merge: quarantined corpses are
   skipped (their journals are already the source of truth), a crashed-
   but-unrespawned shard's Killed is swallowed for the same reason. *)
let drain t =
  List.iter
    (fun name ->
      let s = slot t name in
      if not s.sl_quarantined then
        match s.sl_server with
        | Some srv -> ( try Server.drain srv with J.Killed _ -> ())
        | None -> ())
    t.order
