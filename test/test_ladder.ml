(* The router's one ladder against the blocking ladder it replaced.

   [Router.route] now steps a plain [Router.stream] to its final. The
   blocking [route]/[try_shard] pair it replaced is kept below verbatim
   as the executable reference, except for how it calls a shard: it
   called [ep_request], which is gone, so here it calls a scripted
   whole-reply view of the same shard. A qcheck property drives both
   over the same random scripted shards and request sequence and
   compares them after every step: decision letters, replies, contacts
   per shard, backoff sleeps, breaker states and counters. A second
   property runs framed streams, which hedge and retry the same way as
   long as no leg fails after its first frame. *)

module R = Vega_robust
module S = Vega_serve
module Sh = Vega_shard
module Router = Sh.Router
module Breaker = R.Breaker
module Fault = R.Fault
module Proto = S.Proto

(* ---------------- the reference ---------------- *)

module Ref = struct
  open Router

  (* One contact with a shard; raising means the shard is gone. *)
  let contact f =
    match f () with
    | v -> Ok v
    | exception Fault.Fault fault -> Error (Fault.to_string fault)
    | exception Unix.Unix_error (e, fn, _) ->
        Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

  let verdict ~what = function
    | Proto.Failed m -> Error (Printf.sprintf "shard failed %s: %s" what m)
    | Proto.Rejected Proto.Draining -> Error "shard draining"
    | (Proto.Done _ | Proto.Rejected _) as reply -> Ok reply

  (* One shard, up to 1 + retries attempts. A half-open breaker gets a
     single probe attempt — retrying a probe would defeat the point. *)
  let try_shard call t sh req =
    let admitted = breaker_admit t sh in
    if admitted = Breaker.Skip || not (maybe_probe t sh) then None
    else
      let rec attempt n =
        match
          Result.bind
            (contact (fun () -> call sh.sh_ep.ep_name req))
            (verdict ~what:"request")
        with
        | Ok reply ->
            note_success t sh;
            Some reply
        | Error detail ->
            note_failure t sh ~detail;
            let may_retry =
              admitted <> Breaker.Probe && n < t.cfg.retries
              (* stop the moment the breaker opens mid-loop — the
                 Supervisor.guard discipline; without this check the
                 retry budget keeps hammering a shard the breaker has
                 already declared dead *)
              && Mutex.protect t.lock (fun () -> Breaker.closed sh.sh_breaker)
            in
            if may_retry then begin
              t.sleep (backoff_delay t sh n);
              attempt (n + 1)
            end
            else None
      in
      attempt 0

  (* Decision order, first match wins: cache 'C' → quarantined owner
     ('Q' under Shed, live-ring reroute under Reroute) → hedge 'H' →
     owner 'A' → successor reroute 'R' → shed 'D'. *)
  let route call t (req : Proto.request) =
    let fname = req.Proto.rq_fname in
    match decide t ~fname with
    | Answer reply -> reply
    | Walk { owner; candidates; hedging } ->
        (* Hedge: the owner leg has been stalled past the budget, so the
           duplicate to the ring successor is driven first and wins on
           any clean reply; the stalled owner leg runs only if the hedge
           leg fails (the race, resolved on the decision clock).
           Reordering the walk is the cancellation: the loser is simply
           never driven to completion. *)
        let candidates, hedge_target =
          if not hedging then (candidates, None)
          else
            match candidates with
            | first :: second :: rest when first = owner ->
                Mutex.protect t.lock (fun () ->
                    t.hedges <- t.hedges + 1;
                    (find t owner).sh_hedged <- (find t owner).sh_hedged + 1);
                (second :: first :: rest, Some second)
            | _ -> (candidates, None)
        in
        let rec walk = function
          | [] -> shed t ~owner
          | name :: rest -> (
              match try_shard call t (find t name) req with
              | Some reply ->
                  answered t ~fname ~owner name
                    (if hedge_target = Some name then 'H'
                     else if name = owner then 'A'
                     else 'R')
                    reply;
                  reply
              | None -> walk rest)
        in
        walk candidates
end

(* ---------------- scripted shards ---------------- *)

(* What a shard does with one contact. Frames are statement boundaries
   before the leg's end. *)
type act =
  | Answer of int  (* frames, then a Done final *)
  | Reject  (* typed admission rejection *)
  | Refuse  (* the contact raises *)
  | Drain  (* answers Draining *)
  | Fail of int  (* frames, then a Failed final *)
  | Die of int  (* frames, then the leg raises *)
  | Crash of int  (* frames, then a simulated crash *)

type script = { acts : act list; probes : S.Health.state option list }

let shard_names = [| "s0"; "s1"; "s2" |]

let stmt =
  {
    Vega.Generate.g_col = 0;
    g_line = 0;
    g_inst = 0;
    g_score = 1.0;
    g_tokens = [ "x" ];
    g_shape_ok = true;
    g_level = R.Degrade.Primary;
  }

let done_reply name i =
  Proto.Done
    {
      r_fname = "f";
      r_target = "T";
      r_confidence = 1.0;
      r_degraded = 0;
      r_resumed = false;
      r_source = Printf.sprintf "%s#%d" name i;
    }

let snapshot state =
  {
    S.Health.h_state = state;
    h_queue_depth = 0;
    h_queue_cap = 0;
    h_busy = 0;
    h_domains = 0;
    h_accepted = 0;
    h_rejected = 0;
    h_completed = 0;
    h_deadline_hits = 0;
    h_breaker_open = false;
    h_journal_records = 0;
    h_journal_lag = 0;
    h_cancelled = 0;
    h_epoch = 0;
  }

(* One live copy of a scripted shard: its own cursors and contact count,
   so the reference and the ladder each consume a fresh copy. *)
type shard = {
  name : string;
  mutable acts : act list;
  mutable probes : S.Health.state option list;
  mutable contacts : int;
}

let shard name (sc : script) =
  { name; acts = sc.acts; probes = sc.probes; contacts = 0 }

(* next act of a contact (exhausted scripts answer), and its index *)
let contact sh =
  let i = sh.contacts in
  sh.contacts <- i + 1;
  match sh.acts with
  | [] -> (Answer 0, i)
  | a :: rest ->
      sh.acts <- rest;
      (a, i)

let health sh () =
  match sh.probes with
  | [] -> Some (snapshot S.Health.Ready)
  | p :: rest ->
      sh.probes <- rest;
      Option.map snapshot p

let refused sh =
  Fault.Fault (Fault.Shard_failure { shard = sh.name; detail = "scripted" })

let queue_full = Proto.Queue_full { depth = 1; cap = 1 }

(* The reference's view: one whole reply per contact, as
   [Server.request] answered — a simulated crash was its [Failed]. *)
let request_view sh _req =
  match contact sh with
  | Reject, _ -> Proto.Rejected queue_full
  | Refuse, _ -> raise (refused sh)
  | Drain, _ -> Proto.Rejected Proto.Draining
  | Answer _, i -> done_reply sh.name i
  | Fail _, _ -> Proto.Failed "scripted"
  | Die _, _ -> raise (refused sh)
  | Crash _, _ -> Proto.Failed S.Server.killed_message

(* The ladder's view: a leg per contact, stepped frame by frame. *)
let stream_view sh _req =
  match contact sh with
  | Reject, _ -> Error queue_full
  | Refuse, _ -> raise (refused sh)
  | Drain, _ -> Error Proto.Draining
  | ((Answer k | Fail k | Die k | Crash k) as act), i ->
      let left = ref k in
      Ok
        {
          S.Service.st_step =
            (fun () ->
              if !left > 0 then begin
                decr left;
                S.Server.Sstmt stmt
              end
              else
                match act with
                | Fail _ -> S.Server.Sdone (Proto.Failed "scripted")
                | Die _ -> raise (refused sh)
                | Crash _ -> raise (R.Journal.Killed 0)
                | _ -> S.Server.Sdone (done_reply sh.name i));
          st_cancel = ignore;
          st_abort = (fun ~cancelled:_ _ -> ());
        }

(* ---------------- the property ---------------- *)

type op =
  | Req of string
  | Stall of int
  | Unstall of int
  | Quarantine of int

type case = {
  cfg : Router.config;
  scripts : script array;
  ops : op list;
}

(* A framed stream that has relayed a frame ends 'D' on a failing leg
   where the blocking ladder retried or rerouted, so framed cases fail
   their legs before the first frame. *)
let gen_act ~framed =
  QCheck.Gen.(
    let frames lo = if framed then return 0 else int_range lo 3 in
    frequency
      [
        (5, map (fun k -> Answer k) (int_bound 3));
        (1, return Reject);
        (2, return Refuse);
        (1, return Drain);
        (2, map (fun k -> Fail k) (frames 0));
        (2, map (fun k -> Die k) (frames 1));
        (1, map (fun k -> Crash k) (frames 0));
      ])

let gen_probe =
  QCheck.Gen.(
    frequency
      [
        (6, return (Some S.Health.Ready));
        (1, return (Some S.Health.Draining));
        (1, return None);
      ])

let gen_case ~framed =
  QCheck.Gen.(
    let* policy = oneofl [ Router.Reroute; Router.Shed ] in
    let* retries = int_bound 3 in
    let* breaker_threshold = int_range 1 4 in
    let* breaker_cooldown = int_range 1 5 in
    let* hedge_after = int_bound 3 in
    let* probe_every = int_bound 3 in
    let* seed = int_bound 10_000 in
    let* scripts =
      array_repeat 3
        (let* acts = list_size (int_bound 12) (gen_act ~framed) in
         let* probes = list_size (int_bound 4) gen_probe in
         return { acts; probes })
    in
    let* ops =
      list_size (int_range 1 30)
        (frequency
           [
             (8, map (fun i -> Req (Printf.sprintf "f%d" i)) (int_bound 5));
             (2, map (fun i -> Stall i) (int_bound 2));
             (1, map (fun i -> Unstall i) (int_bound 2));
             (1, map (fun i -> Quarantine i) (int_bound 2));
           ])
    in
    return
      {
        cfg =
          {
            Router.default_config with
            Router.policy;
            retries;
            breaker_threshold;
            breaker_cooldown;
            hedge_after;
            probe_every;
            seed;
          };
        scripts;
        ops;
      })

let print_case c =
  let act = function
    | Answer k -> Printf.sprintf "answer%d" k
    | Reject -> "reject"
    | Refuse -> "refuse"
    | Drain -> "drain"
    | Fail k -> Printf.sprintf "fail%d" k
    | Die k -> Printf.sprintf "die%d" k
    | Crash k -> Printf.sprintf "crash%d" k
  in
  let probe = function
    | Some s -> S.Health.state_name s
    | None -> "lost"
  in
  let op = function
    | Req f -> f
    | Stall i -> Printf.sprintf "stall:%s" shard_names.(i)
    | Unstall i -> Printf.sprintf "unstall:%s" shard_names.(i)
    | Quarantine i -> Printf.sprintf "quarantine:%s" shard_names.(i)
  in
  Printf.sprintf
    "policy=%s retries=%d threshold=%d cooldown=%d hedge_after=%d \
     probe_every=%d seed=%d\n%s\nops: %s"
    (Router.policy_name c.cfg.Router.policy)
    c.cfg.Router.retries c.cfg.Router.breaker_threshold
    c.cfg.Router.breaker_cooldown c.cfg.Router.hedge_after
    c.cfg.Router.probe_every c.cfg.Router.seed
    (String.concat "\n"
       (Array.to_list
          (Array.mapi
             (fun i (sc : script) ->
               Printf.sprintf "%s: acts [%s] probes [%s]" shard_names.(i)
                 (String.concat " " (List.map act sc.acts))
                 (String.concat " " (List.map probe sc.probes)))
             c.scripts)))
    (String.concat " " (List.map op c.ops))

(* A router over fresh copies of the case's shards, with its own sleep
   log: [endpoint] picks the view its ladder talks to. *)
let mk_router c endpoint =
  let shards = Array.mapi (fun i sc -> shard shard_names.(i) sc) c.scripts in
  let sleeps = ref [] in
  let eps =
    Array.to_list
      (Array.map
         (fun sh ->
           {
             Router.ep_name = sh.name;
             ep_stream = endpoint sh;
             ep_health = health sh;
             ep_drain = (fun () -> None);
           })
         shards)
  in
  match
    Router.create ~config:c.cfg
      ~sleep:(fun d -> sleeps := d :: !sleeps)
      ~fingerprint:"fp" ~desc_hash:"dh" eps
  with
  | Ok r -> (r, shards, sleeps)
  | Error e -> failwith e

let unused_stream _ _ = failwith "the reference routes by whole replies"

let same_as_reference ~framed c =
  let rr, rshards, rsleeps = mk_router c unused_stream in
  let nr, nshards, nsleeps = mk_router c stream_view in
  let call name =
    request_view (List.find (fun sh -> sh.name = name) (Array.to_list rshards))
  in
  let observe r shards sleeps =
    ( Router.decisions r,
      Array.map (fun sh -> sh.contacts) shards,
      List.rev !sleeps,
      Router.status r,
      Router.counters r )
  in
  let fail step what =
    QCheck.Test.fail_reportf "diverged at op %d: %s" step what
  in
  List.iteri
    (fun step op ->
      (match op with
      | Req f ->
          let req = Proto.request ~client:"q" ~target:"T" f in
          let want = Ref.route call rr req in
          let got =
            if framed then
              S.Server.step_to_final (Router.stream nr req).S.Service.st_step
            else Router.route nr req
          in
          if Proto.encode_reply want <> Proto.encode_reply got then
            fail step
              (Printf.sprintf "reply %s, reference %s" (Proto.encode_reply got)
                 (Proto.encode_reply want))
      | Stall i ->
          Router.mark_stalled rr shard_names.(i);
          Router.mark_stalled nr shard_names.(i)
      | Unstall i ->
          Router.clear_stalled rr shard_names.(i);
          Router.clear_stalled nr shard_names.(i)
      | Quarantine i ->
          Router.quarantine rr shard_names.(i) ~crashes:1;
          Router.quarantine nr shard_names.(i) ~crashes:1);
      let wd, wc, ws, wst, wcn = observe rr rshards rsleeps in
      let gd, gc, gs, gst, gcn = observe nr nshards nsleeps in
      if wd <> gd then
        fail step (Printf.sprintf "letters %S, reference %S" gd wd);
      if wc <> gc then fail step "contacts per shard";
      if ws <> gs then fail step "backoff sleeps";
      if wst <> gst then fail step "shard status (breakers, counts)";
      if wcn <> gcn then fail step "router counters")
    c.ops;
  true

let ladder_test ~framed name =
  QCheck.Test.make ~count:1000 ~name
    (QCheck.make ~print:print_case (gen_case ~framed))
    (same_as_reference ~framed)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      ladder_test ~framed:false "plain ladder = the blocking ladder";
      ladder_test ~framed:true
        "framed ladder = the blocking ladder before a first frame";
    ]
