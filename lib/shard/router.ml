(* Front-door router over N serving shards.

   A request's key is the same triple the cache addresses by —
   (pipeline fingerprint, descfile hash, function name) — consistent-
   hashed onto the shard ring. The router is the robustness layer:

   - the content-addressed {!Cache} answers repeats O(1) with zero
     decoder involvement;
   - a per-shard circuit breaker (the {!Vega_robust.Breaker} state
     machine the supervisor also runs, cooldown counted in routing
     decisions, not wall clock) stops hammering a dead shard;
   - failed contacts retry with the breaker's bounded, seeded
     exponential backoff (deterministic per-shard jitter streams);
   - when the owner is down, policy decides: [Reroute] walks the ring
     successors, [Shed] answers a typed [Shard_down] rejection.

   Every routing decision appends one character to the decision log —
   'C' cache hit, 'A' answered by the owner, 'R' rerouted to a
   successor, 'D' shed, 'H' hedged to the ring successor, 'Q' rejected
   because the owner is quarantined — so a storm's outcome is a string
   two runs can compare byte-for-byte. The lock covers decisions and
   bookkeeping only, never the shard call itself: a single-threaded
   caller gets a fully deterministic decision sequence, concurrent
   callers get parallel shards.

   The fleet supervisor (vega.fleet) reconfigures the router live:
   [quarantine] moves vnodes out of the ring at runtime with minimal key
   movement, [replace_endpoint] swaps in a respawned shard's endpoint,
   and [mark_stalled] arms hedging. Two rings are
   kept: the *live* ring routes traffic (quarantined shards hold no
   vnodes, so they can never receive a request), while the *full* ring
   remembers original ownership so a request whose true owner is
   quarantined gets a typed [Shard_quarantined] rejection under [Shed]
   instead of silently changing owner.

   Hedging is deterministic: a shard marked stalled at decision d0
   hedges requests it owns once [hedge_after] further decisions have
   passed. The in-flight owner leg is the loser by construction — the
   hedge leg to the ring successor is driven first and wins on any
   clean reply; only if the hedge leg fails is the slow owner leg
   driven to completion. Exactly one reply wins, the loser is
   cancelled (never driven), and because both legs share one
   content-addressed cache key a hedge can never publish twice.

   Shard failure means the shard is *gone* — the endpoint raised
   (socket refused, peer crashed) or answered [Failed]/[Draining].
   Typed admission rejections (queue-full, budget, expiry, bad
   request) are the shard speaking, not dying: they pass through to
   the client untouched, so the router never converts overload into
   double work on another shard. *)

module Breaker = Vega_robust.Breaker
module Fault = Vega_robust.Fault
module Report = Vega_robust.Report
module Wire = Vega_robust.Wire
module Rng = Vega_util.Rng
module Proto = Vega_serve.Proto
module Health = Vega_serve.Health
module Server = Vega_serve.Server
module Service = Vega_serve.Service

type policy = Reroute | Shed

let policy_name = function Reroute -> "reroute" | Shed -> "shed"

let policy_of_name = function
  | "reroute" -> Some Reroute
  | "shed" -> Some Shed
  | _ -> None

type config = {
  policy : policy;
  retries : int;  (* extra attempts per shard after the first failure *)
  backoff_base_s : float;
  backoff_max_s : float;
  breaker_threshold : int;  (* consecutive failures that open the breaker *)
  breaker_cooldown : int;  (* routing decisions skipped while open *)
  probe_every : int;  (* health-probe one contact in N; 0 disables *)
  replicas : int;  (* virtual points per shard on the ring *)
  seed : int;  (* backoff jitter streams *)
  hedge_after : int;  (* decisions a shard stays stalled before owned
                         requests hedge to the ring successor; 0 disables *)
}

let default_config =
  {
    policy = Reroute;
    retries = 1;
    backoff_base_s = 0.01;
    backoff_max_s = 0.25;
    breaker_threshold = 3;
    breaker_cooldown = 8;
    probe_every = 16;
    replicas = 64;
    seed = 0x5eed;
    hedge_after = 4;
  }

(* A shard as the router sees it: a name and closures over a {!Server}
   (or a test stub). *)
type endpoint = {
  ep_name : string;
  ep_stream : Proto.request -> (Service.stream, Proto.reject_reason) result;
      (* open a stream on the shard (one contact): admission answers at
         once, then the router steps it one statement boundary at a
         time *)
  ep_health : unit -> Health.snapshot option;
  ep_drain : unit -> Health.snapshot option;
}

(* Degenerate streaming for endpoints that only speak whole replies
   (test stubs): no statement frames, just the final verdict — the same
   shape a cache hit produces. *)
let buffered_stream reply req =
  Ok
    {
      Service.st_step = (fun () -> Server.Sdone (reply req));
      st_cancel = ignore;
      st_abort = (fun ~cancelled:_ _ -> ());
    }

type shard = {
  mutable sh_ep : endpoint;  (* swapped on respawn by the fleet *)
  sh_rng : Rng.t;  (* per-shard backoff jitter stream *)
  mutable sh_breaker : Breaker.state;
  mutable sh_routed : int;  (* requests this shard answered *)
  mutable sh_failures : int;  (* failed contact attempts *)
  mutable sh_rerouted : int;  (* owned requests answered elsewhere *)
  mutable sh_shed : int;  (* owned requests shed *)
  mutable sh_contacts : int;  (* probe cadence counter *)
  mutable sh_last_state : Health.state option;  (* latest probe result *)
  mutable sh_stalled_at : int option;  (* decision index of the stall mark *)
  mutable sh_hedged : int;  (* owned requests hedged to the successor *)
  mutable sh_quarantined : int option;  (* crash count, when quarantined *)
}

type t = {
  cfg : config;
  mutable ring : Ring.t;  (* live ring: routes traffic, reconfigured *)
  mutable full_ring : Ring.t;  (* every shard ever joined: true ownership *)
  tbl : (string, shard) Hashtbl.t;
  mutable order : string list;  (* endpoint order, for status/drain *)
  cache : Cache.t option;
  report : Report.t;
  sleep : float -> unit;
  lock : Mutex.t;
  dlog : Buffer.t;
  fingerprint : string;
  desc_hash : string;
  mutable routed : int;
  mutable cache_hits : int;
  mutable reroutes : int;
  mutable sheds : int;
  mutable hedges : int;
  mutable qrejects : int;  (* quarantine rejections answered *)
}

let shard_run_dir base i = Filename.concat base (Printf.sprintf "shard-%d" i)

let of_server ~name srv =
  {
    ep_name = name;
    ep_stream = (Service.of_server srv).Service.sv_start ~plain:false;
    ep_health = (fun () -> Some (Server.health srv));
    ep_drain =
      (fun () ->
        Server.drain srv;
        Some (Server.health srv));
  }

let create ?(config = default_config) ?cache ?report ?sleep ~fingerprint
    ~desc_hash endpoints =
  match endpoints with
  | [] -> Error "router needs at least one shard"
  | _ -> (
      let names = List.map (fun ep -> ep.ep_name) endpoints in
      match Ring.create ~replicas:config.replicas names with
      | exception Invalid_argument m -> Error m
      | ring ->
          let tbl = Hashtbl.create (List.length endpoints) in
          List.iteri
            (fun i ep ->
              Hashtbl.replace tbl ep.ep_name
                {
                  sh_ep = ep;
                  sh_rng = Rng.create (Rng.index_seed config.seed i);
                  sh_breaker = Breaker.initial;
                  sh_routed = 0;
                  sh_failures = 0;
                  sh_rerouted = 0;
                  sh_shed = 0;
                  sh_contacts = 0;
                  sh_last_state = None;
                  sh_stalled_at = None;
                  sh_hedged = 0;
                  sh_quarantined = None;
                })
            endpoints;
          Ok
            {
              cfg = config;
              ring;
              full_ring = ring;
              tbl;
              order = names;
              cache;
              report = (match report with Some r -> r | None -> Report.create ());
              sleep = (match sleep with Some f -> f | None -> Unix.sleepf);
              lock = Mutex.create ();
              dlog = Buffer.create 256;
              fingerprint;
              desc_hash;
              routed = 0;
              cache_hits = 0;
              reroutes = 0;
              sheds = 0;
              hedges = 0;
              qrejects = 0;
            })

let report t = t.report
let cache t = t.cache
let shards t = t.order
let decisions t = Mutex.protect t.lock (fun () -> Buffer.contents t.dlog)

let find t name = Hashtbl.find t.tbl name
let decision_count t = Mutex.protect t.lock (fun () -> t.routed)

(* ---- live reconfiguration (the vega.fleet hooks) ---- *)

(* Quarantine removes the shard's vnodes from the *live* ring only:
   because a shard's points depend on nothing but its own name, every
   surviving vnode stays put and only the quarantined shard's keys move
   (minimal disruption, same argument as Ring.remove). The full ring is
   untouched — it remembers who the true owner is, so [route] can
   answer a typed [Shard_quarantined] for keys whose owner is out. *)
let quarantine t name ~crashes =
  Mutex.protect t.lock (fun () ->
      let sh = find t name in
      if sh.sh_quarantined = None then begin
        sh.sh_quarantined <- Some crashes;
        (match Ring.remove t.ring name with
        | ring -> t.ring <- ring
        | exception Invalid_argument _ -> ())
      end)

(* Respawn swaps the endpoint in place: counters stay cumulative, the
   breaker and stall mark reset — the respawned shard starts clean. *)
let replace_endpoint t name ep =
  Mutex.protect t.lock (fun () ->
      let sh = find t name in
      sh.sh_ep <- ep;
      sh.sh_breaker <- Breaker.initial;
      sh.sh_stalled_at <- None;
      sh.sh_last_state <- None)

(* Stall classification, set by the fleet when a probe times out or a
   typed stall fault lands. The mark is a decision index: owned
   requests hedge once [hedge_after] further decisions have passed. *)
let mark_stalled t name =
  Mutex.protect t.lock (fun () ->
      let sh = find t name in
      if sh.sh_stalled_at = None then sh.sh_stalled_at <- Some t.routed)

let clear_stalled t name =
  Mutex.protect t.lock (fun () -> (find t name).sh_stalled_at <- None)

let quarantined t =
  Mutex.protect t.lock (fun () ->
      List.filter_map
        (fun name ->
          Option.map (fun crashes -> (name, crashes)) (find t name).sh_quarantined)
        t.order)

let live_shards t = Mutex.protect t.lock (fun () -> Ring.shards t.ring)

(* ---- breaker (all transitions under the router lock) ---- *)

(* May we contact this shard for this routing decision? An open breaker
   counts down its cooldown in skipped decisions — deterministic, no
   wall clock — and lets exactly one probe request through half-open. *)
let breaker_admit t sh =
  Mutex.protect t.lock (fun () ->
      let verdict, breaker = Breaker.admit sh.sh_breaker in
      sh.sh_breaker <- breaker;
      verdict)

let note_success t sh =
  Mutex.protect t.lock (fun () ->
      sh.sh_breaker <- Breaker.success sh.sh_breaker)

let note_failure t sh ~detail =
  Report.record t.report ~stage:"router"
    (Fault.Shard_failure { shard = sh.sh_ep.ep_name; detail });
  Mutex.protect t.lock (fun () ->
      sh.sh_failures <- sh.sh_failures + 1;
      sh.sh_breaker <-
        Breaker.failure ~threshold:t.cfg.breaker_threshold
          ~cooldown:t.cfg.breaker_cooldown ~counted:true sh.sh_breaker)

let backoff_delay t sh attempt =
  Mutex.protect t.lock (fun () ->
      Breaker.backoff ~base:t.cfg.backoff_base_s ~max:t.cfg.backoff_max_s
        sh.sh_rng attempt)

(* ---- health probes ---- *)

let probe_shard t sh =
  let state = Option.map (fun h -> h.Health.h_state) (sh.sh_ep.ep_health ()) in
  Mutex.protect t.lock (fun () -> sh.sh_last_state <- state);
  state

(* Layered on the contact path: every [probe_every]-th contact refreshes
   the shard's health snapshot; an unreachable or non-Ready shard is a
   failed contact before we even send the request. *)
let maybe_probe t sh =
  let due =
    t.cfg.probe_every > 0
    && Mutex.protect t.lock (fun () ->
           sh.sh_contacts <- sh.sh_contacts + 1;
           (sh.sh_contacts - 1) mod t.cfg.probe_every = 0)
  in
  if not due then true
  else
    match probe_shard t sh with
    | Some Health.Ready -> true
    | Some (Health.Starting | Health.Draining | Health.Stopped) ->
        note_failure t sh ~detail:"health probe: shard not ready";
        false
    | None ->
        note_failure t sh ~detail:"health probe: shard unreachable";
        false

(* ---- routing ---- *)

let failed ~what m = Printf.sprintf "shard failed %s: %s" what m

(* One contact with a shard; raising means the shard is gone. A
   simulated crash is a shard dying mid-leg. *)
let contact ~what f =
  match f () with
  | v -> Ok v
  | exception Fault.Fault fault -> Error (Fault.to_string fault)
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Vega_robust.Journal.Killed _ ->
      Error (failed ~what Server.killed_message)

(* A shard's reply as the ladder sees it: a failed or draining shard is
   a failed contact, anything else is the shard speaking. A typed
   admission rejection on a half-open probe closes the breaker exactly
   like a clean [Done]: overload is not death. *)
let verdict ~what = function
  | Proto.Failed m -> Error (failed ~what m)
  | Proto.Rejected Proto.Draining -> Error "shard draining"
  | (Proto.Done _ | Proto.Rejected _) as reply -> Ok reply

let request_key t ~fname =
  Cache.request_key ~fingerprint:t.fingerprint ~desc_hash:t.desc_hash ~fname

let log_decision t c =
  Mutex.protect t.lock (fun () -> Buffer.add_char t.dlog c)

(* The head of the ladder — one routing decision: cache 'C', then a
   quarantined owner under Shed 'Q'. Otherwise the owner and the
   candidates to walk, plus whether the owner has been stalled past the
   hedge budget. *)
type decision =
  | Answer of Proto.reply
  | Walk of { owner : string; candidates : string list; hedging : bool }

let decide t ~fname =
  Mutex.protect t.lock (fun () -> t.routed <- t.routed + 1);
  match
    match t.cache with None -> None | Some c -> Cache.get c ~fname
  with
  | Some reply ->
      Mutex.protect t.lock (fun () -> t.cache_hits <- t.cache_hits + 1);
      log_decision t 'C';
      Answer reply
  | None -> (
      let key = request_key t ~fname in
      (* Ownership, candidates and the hedge decision are read under
         one lock hold: the fleet may reconfigure the ring between
         requests, never in the middle of one. The *full* ring names
         the true owner; the *live* ring supplies the candidates a
         request may actually touch. *)
      let owner, owner_quarantine, candidates, hedging =
        Mutex.protect t.lock (fun () ->
            let owner = Ring.lookup t.full_ring key in
            let osh = find t owner in
            let candidates = Ring.successors t.ring key in
            let hedging =
              t.cfg.policy = Reroute && t.cfg.hedge_after > 0
              && osh.sh_quarantined = None
              &&
              match osh.sh_stalled_at with
              | Some d0 -> t.routed - d0 >= t.cfg.hedge_after
              | None -> false
            in
            (owner, osh.sh_quarantined, candidates, hedging))
      in
      match (owner_quarantine, t.cfg.policy) with
      | Some crashes, Shed ->
          (* the owner is quarantined and policy says don't move keys:
             a typed rejection, never a contact attempt *)
          Mutex.protect t.lock (fun () ->
              t.qrejects <- t.qrejects + 1;
              (find t owner).sh_shed <- (find t owner).sh_shed + 1);
          log_decision t 'Q';
          Answer
            (Proto.Rejected
               (Proto.Shard_quarantined { shard = owner; crashes }))
      | _ ->
          let candidates =
            match t.cfg.policy with Reroute -> candidates | Shed -> [ owner ]
          in
          Walk { owner; candidates; hedging })

(* No candidate answered: 'D'. *)
let shed t ~owner =
  Mutex.protect t.lock (fun () ->
      t.sheds <- t.sheds + 1;
      (find t owner).sh_shed <- (find t owner).sh_shed + 1);
  log_decision t 'D';
  Proto.Rejected (Proto.Shard_down { shard = owner })

(* Shard [name] answered: count it, log [letter], keep a clean reply. *)
let answered t ~fname ~owner name letter reply =
  Mutex.protect t.lock (fun () ->
      let sh = find t name in
      sh.sh_routed <- sh.sh_routed + 1;
      if name <> owner then begin
        t.reroutes <- t.reroutes + 1;
        let ow = find t owner in
        ow.sh_rerouted <- ow.sh_rerouted + 1
      end);
  log_decision t letter;
  match t.cache with Some c -> ignore (Cache.put c ~fname reply) | None -> ()

(* ---- the ladder ----

   Every routed request is a stream stepped one statement boundary at
   a time: the event loop interleaves it with every other connection,
   [route] steps it to its final in process. The decision is taken at
   the first step, the loop's slot assignment; then each candidate's
   own stream (the leg) is relayed statement by statement. Order, first
   match wins: cache 'C' → quarantined owner ('Q' under Shed, live-ring
   reroute under Reroute) → hedge 'H' → owner 'A' → successor reroute
   'R' → shed 'D'.

   A hedge tries the ring successor before an owner stalled past the
   budget: it wins on any clean reply, and the stalled owner is
   contacted only if it fails (the race, resolved on the decision
   clock; the loser is never contacted). Each candidate is admitted
   through its breaker and probed, then gets up to [1 + retries] legs
   with a seeded backoff sleep between them, while nothing has reached
   the client, its breaker is closed and it was not admitted as the
   half-open probe (retrying a probe would defeat the point). Once a
   framed stream has relayed a statement frame, a failing leg ends it
   with a typed [Shard_down] final, since a replay elsewhere would
   duplicate frames; a plain stream relays nothing, so its failing leg
   is retried or rerouted. The router owns the final: a leg's own final
   is classified here, never relayed. *)

type stream = {
  rs_req : Proto.request;
  rs_plain : bool;  (* the client sees no statement frames *)
  mutable rs_owner : string option;  (* set by the decision *)
  mutable rs_hedge : string option;  (* the successor hedged to *)
  mutable rs_todo : string list;  (* candidates not tried yet *)
  mutable rs_shard : (string * Breaker.verdict * int) option;
      (* the candidate being tried: its admission and the legs it has
         already failed *)
  mutable rs_leg : Service.stream option;  (* its open leg *)
  mutable rs_relayed : bool;  (* a statement frame reached the client *)
  mutable rs_cancelled : bool;
}

let what rs = if rs.rs_plain then "request" else "stream"

(* Move the ring successor ahead of the stalled owner. *)
let hedge t rs ~owner =
  match rs.rs_todo with
  | first :: second :: rest when first = owner ->
      Mutex.protect t.lock (fun () ->
          t.hedges <- t.hedges + 1;
          (find t owner).sh_hedged <- (find t owner).sh_hedged + 1);
      rs.rs_todo <- second :: first :: rest;
      rs.rs_hedge <- Some second
  | _ -> ()

let rec stream_step t rs =
  match (rs.rs_owner, rs.rs_leg) with
  | Some owner, Some leg -> relay t rs ~owner leg
  | Some owner, None -> walk t rs ~owner
  | None, _ -> (
      match decide t ~fname:rs.rs_req.Proto.rq_fname with
      | Answer reply -> Server.Sdone reply
      | Walk { owner; candidates; hedging } ->
          rs.rs_owner <- Some owner;
          rs.rs_todo <- candidates;
          if hedging then hedge t rs ~owner;
          walk t rs ~owner)

(* Admit the next candidate and open its first leg. *)
and walk t rs ~owner =
  match rs.rs_todo with
  | [] -> Server.Sdone (shed t ~owner)
  | name :: rest ->
      rs.rs_todo <- rest;
      let sh = find t name in
      let admitted = breaker_admit t sh in
      if admitted = Breaker.Skip || not (maybe_probe t sh) then walk t rs ~owner
      else open_leg t rs ~owner name admitted 0

and open_leg t rs ~owner name admitted failed_legs =
  rs.rs_shard <- Some (name, admitted, failed_legs);
  let what = what rs in
  match contact ~what (fun () -> (find t name).sh_ep.ep_stream rs.rs_req) with
  | Ok (Ok leg) ->
      if rs.rs_cancelled then leg.Service.st_cancel ();
      rs.rs_leg <- Some leg;
      relay t rs ~owner leg
  | Ok (Error r) -> settle t rs ~owner (verdict ~what (Proto.Rejected r))
  | Error detail -> settle t rs ~owner (Error detail)

and relay t rs ~owner leg =
  let what = what rs in
  match contact ~what leg.Service.st_step with
  | Ok (Server.Sstmt _ as ev) ->
      if not rs.rs_plain then rs.rs_relayed <- true;
      ev
  | Ok (Server.Sdone reply) -> settle t rs ~owner (verdict ~what reply)
  | Ok (Server.Scancelled { at_stmt }) ->
      settle t rs ~owner (Ok (Proto.Rejected (Proto.Cancelled { at_stmt })))
  | Error detail -> settle t rs ~owner (Error detail)

(* The current leg ended: the stream's final, a retry on the same
   shard, or the next candidate. *)
and settle t rs ~owner outcome =
  let name, admitted, failed_legs = Option.get rs.rs_shard in
  let sh = find t name in
  rs.rs_leg <- None;
  match outcome with
  | Ok reply -> (
      note_success t sh;
      answered t ~fname:rs.rs_req.Proto.rq_fname ~owner name
        (if rs.rs_hedge = Some name then 'H'
         else if name = owner then 'A'
         else 'R')
        reply;
      match reply with
      | Proto.Rejected (Proto.Cancelled { at_stmt }) ->
          Server.Scancelled { at_stmt }
      | _ -> Server.Sdone reply)
  | Error detail ->
      note_failure t sh ~detail;
      (* stop the moment the breaker opens mid-loop — the
         Supervisor.guard discipline; without this check the retry
         budget keeps hammering a shard the breaker has already
         declared dead *)
      let may_retry () =
        admitted <> Breaker.Probe
        && failed_legs < t.cfg.retries
        && Mutex.protect t.lock (fun () -> Breaker.closed sh.sh_breaker)
      in
      if rs.rs_relayed then Server.Sdone (shed t ~owner)
      else if may_retry () then begin
        t.sleep (backoff_delay t sh failed_legs);
        open_leg t rs ~owner name admitted (failed_legs + 1)
      end
      else walk t rs ~owner

(* A cancel (frame, EOF or reset) reaches the leg's token, which the
   shard observes at its next statement boundary. *)
let stream_cancel rs =
  rs.rs_cancelled <- true;
  Option.iter (fun leg -> leg.Service.st_cancel ()) rs.rs_leg

(* A routed request as the event loop drives it; [plain] requests hide
   their statement frames from the client. Nothing is decided before
   the first step, so a stream aborted while it waits for a slot
   leaves no trace. *)
let stream ?(plain = false) t req =
  let rs =
    {
      rs_req = req;
      rs_plain = plain;
      rs_owner = None;
      rs_hedge = None;
      rs_todo = [];
      rs_shard = None;
      rs_leg = None;
      rs_relayed = false;
      rs_cancelled = false;
    }
  in
  {
    Service.st_step = (fun () -> stream_step t rs);
    st_cancel = (fun () -> stream_cancel rs);
    st_abort = (fun ~cancelled:_ _ -> ());
  }

(* One request, in process: its plain stream stepped to the final. *)
let route t req =
  Server.step_to_final (stream ~plain:true t req).Service.st_step

(* ---- status ---- *)

type shard_status = {
  ss_name : string;
  ss_breaker : string;  (* "closed" | "open" | "half-open" *)
  ss_routed : int;
  ss_failures : int;
  ss_rerouted : int;
  ss_shed : int;
  ss_state : string;  (* last probed health state, or "unknown" *)
}

let status ?(probe = false) t =
  if probe then
    List.iter (fun name -> ignore (probe_shard t (find t name))) t.order;
  Mutex.protect t.lock (fun () ->
      List.map
        (fun name ->
          let sh = find t name in
          {
            ss_name = name;
            ss_breaker =
              (if sh.sh_quarantined <> None then "quarantined"
               else Breaker.name sh.sh_breaker);
            ss_routed = sh.sh_routed;
            ss_failures = sh.sh_failures;
            ss_rerouted = sh.sh_rerouted;
            ss_shed = sh.sh_shed;
            ss_state =
              (match sh.sh_last_state with
              | Some s -> Health.state_name s
              | None -> "unknown");
          })
        t.order)

let status_fields s =
  [
    s.ss_name;
    s.ss_breaker;
    string_of_int s.ss_routed;
    string_of_int s.ss_failures;
    string_of_int s.ss_rerouted;
    string_of_int s.ss_shed;
    s.ss_state;
  ]

let encode_status statuses =
  Wire.encode_line
    ("shard-status"
    :: string_of_int (List.length statuses)
    :: List.concat_map status_fields statuses)

let decode_status line =
  match Wire.decode_line line with
  | Some ("shard-status" :: n :: rest) -> (
      match Wire.int_of_field n with
      | Some n when n >= 0 && List.length rest = n * 7 ->
          let rec chunks = function
            | [] -> Some []
            | name :: breaker :: routed :: failures :: rerouted :: shed
              :: state :: more -> (
                match
                  ( Wire.int_of_field routed,
                    Wire.int_of_field failures,
                    Wire.int_of_field rerouted,
                    Wire.int_of_field shed )
                with
                | Some ss_routed, Some ss_failures, Some ss_rerouted,
                  Some ss_shed ->
                    Option.map
                      (fun tail ->
                        {
                          ss_name = name;
                          ss_breaker = breaker;
                          ss_routed;
                          ss_failures;
                          ss_rerouted;
                          ss_shed;
                          ss_state = state;
                        }
                        :: tail)
                      (chunks more)
                | _ -> None)
            | _ -> None
          in
          chunks rest
      | _ -> None)
  | _ -> None

(* ---- aggregates ---- *)

type counters = {
  rt_routed : int;
  rt_cache_hits : int;
  rt_reroutes : int;
  rt_sheds : int;
  rt_hedges : int;
  rt_qrejects : int;
}

let counters t =
  Mutex.protect t.lock (fun () ->
      {
        rt_routed = t.routed;
        rt_cache_hits = t.cache_hits;
        rt_reroutes = t.reroutes;
        rt_sheds = t.sheds;
        rt_hedges = t.hedges;
        rt_qrejects = t.qrejects;
      })

(* Fleet-wide health: counters summed over reachable shards, state the
   worst of the fleet (any non-Ready shard drags the aggregate).
   Quarantined shards are out of the fleet — they don't drag it. *)
let health t =
  let members =
    Mutex.protect t.lock (fun () ->
        List.filter (fun name -> (find t name).sh_quarantined = None) t.order)
  in
  let snaps =
    List.filter_map (fun name -> (find t name).sh_ep.ep_health ()) members
  in
  let sum f = List.fold_left (fun n s -> n + f s) 0 snaps in
  let state =
    if snaps = [] then Health.Stopped
    else if List.for_all (fun s -> s.Health.h_state = Health.Ready) snaps then
      Health.Ready
    else if List.exists (fun s -> s.Health.h_state = Health.Stopped) snaps then
      Health.Stopped
    else Health.Draining
  in
  {
    Health.h_state = state;
    h_queue_depth = sum (fun s -> s.Health.h_queue_depth);
    h_queue_cap = sum (fun s -> s.Health.h_queue_cap);
    h_busy = sum (fun s -> s.Health.h_busy);
    h_domains = sum (fun s -> s.Health.h_domains);
    h_accepted = sum (fun s -> s.Health.h_accepted);
    h_rejected = sum (fun s -> s.Health.h_rejected);
    h_completed = sum (fun s -> s.Health.h_completed);
    h_deadline_hits = sum (fun s -> s.Health.h_deadline_hits);
    h_breaker_open =
      List.exists (fun s -> s.Health.h_breaker_open) snaps
      || Mutex.protect t.lock (fun () ->
             List.exists
               (fun name -> not (Breaker.closed (find t name).sh_breaker))
               members);
    h_journal_records = sum (fun s -> s.Health.h_journal_records);
    h_journal_lag = sum (fun s -> s.Health.h_journal_lag);
    h_cancelled = sum (fun s -> s.Health.h_cancelled);
    (* fleet epoch: total respawns across the member shards *)
    h_epoch = sum (fun s -> s.Health.h_epoch);
  }

(* Drain every shard in endpoint order; the first crash (e.g. a
   simulated-kill Journal.Killed) is re-raised after the rest have
   drained, so one dying shard cannot leave the fleet running. *)
let drain t =
  let first_exn = ref None in
  List.iter
    (fun name ->
      match (find t name).sh_ep.ep_drain () with
      | _ -> ()
      | exception e -> if !first_exn = None then first_exn := Some e)
    t.order;
  match !first_exn with Some e -> raise e | None -> ()
