(* The vega-serve core: admission, streams and durability around the
   generation pipeline, with no executor of its own.

   Admission is synchronous and happens entirely in the caller, in a
   fixed order — readiness, target/function validity, per-client token
   bucket — so under a deterministic submission order the accept/reject
   sequence is deterministic too.

   Every admitted request runs one way: as a stream, a [Generate]
   stepper advanced one statement boundary per [stream_step], on its
   own forked supervisor with a cancel token. Whoever opens a stream
   ([stream_start]) steps it: the event loop, which alone queues,
   sheds and parallelises streams; the router; or [request], which
   steps one to its final on the calling domain. In durable mode every
   request's statements are write-ahead-journaled through Pipeline's
   one recorder, the one Pipeline.generate_backend_durable writes
   through, so a kill mid-request resumes to bit-identical output.

   Lock order: a thread holds at most one of [st_lock] and the journal
   lock at a time. *)

module Sup = Vega_robust.Supervisor
module J = Vega_robust.Journal
module Report = Vega_robust.Report
module Degrade = Vega_robust.Degrade
module Pipeline = Vega.Pipeline
module Generate = Vega.Generate

type config = {
  domains : int;
  queue_cap : int;
      (* [domains] and [queue_cap] are read by nothing: the event loop's
         [ev_slots] and [ev_wait_cap] bound concurrency and waiting.
         They stay only because perfbench writes them, and go with its
         next change. *)
  deadline_ms : int;  (* default per-request budget; 0 = none *)
  client_burst : float;  (* token-bucket capacity per client *)
  client_rate : float;  (* token refill per second *)
}

let default_config =
  {
    domains = 2;
    queue_cap = 16;
    deadline_ms = 0;
    client_burst = 32.0;
    client_rate = 8.0;
  }

(* A completed function plus whether it was restored from the journal
   (as opposed to generated by this process). *)
type done_entry = { de_completed : J.completed; de_restored : bool }

type t = {
  cfg : config;
  pipeline : Pipeline.t;
  target : string;
  decoder : Generate.decoder;
  fallback : Generate.decoder option;
  report : Report.t;
  bucket : Bucket.t;
  now : unit -> float;
  base_sup : Sup.t;
      (* fork parent for streams; a stream's own fork is folded back in
         when it settles *)
  journal : Pipeline.journal option;
  st_lock : Mutex.t;
  done_tbl : (string, done_entry) Hashtbl.t;  (* by fname; st_lock *)
  mutable state : Health.state;
  mutable accepted : int;
  mutable rejected : int;
  mutable completed : int;
  mutable cancelled : int;  (* streams aborted by cancel/disconnect *)
  mutable stream_seq : int;  (* fork-index source for stream supervisors *)
  mutable busy : int;
  mutable killed : int option;  (* Journal.Killed payload, if crashed *)
  epoch : int;  (* respawn generation, stamped by the fleet supervisor *)
}

(* What a request caught by a simulated crash answers. *)
let killed_message = "simulated crash: journal writer killed"

let degraded_count (gf : Generate.gen_func) =
  List.length
    (List.filter
       (fun (s : Generate.gen_stmt) -> s.Generate.g_level <> Degrade.Primary)
       gf.Generate.gf_stmts)

let done_reply t (gf : Generate.gen_func) ~restored =
  Proto.Done
    {
      r_fname = gf.Generate.gf_fname;
      r_target = t.target;
      r_confidence = gf.Generate.gf_confidence;
      r_degraded = degraded_count gf;
      r_resumed = restored;
      r_source = Generate.source_of gf;
    }

let record_completed t fname (gf : Generate.gen_func) =
  let c = Pipeline.completed_of_gen fname gf in
  Mutex.protect t.st_lock (fun () ->
      Hashtbl.replace t.done_tbl fname { de_completed = c; de_restored = false })

(* A request whose deadline passed while it waited for an event-loop
   slot is rejected there and never started: the caller has already
   given up on it. *)
let expired t ~enqueued ~deadline =
  match deadline with
  | Some d when t.now () >= d ->
      Some
        (Proto.Expired
           { waited_ms = int_of_float ((t.now () -. enqueued) *. 1000.0) })
  | _ -> None

(* ---- creation ---- *)

let create ?(config = default_config) ?fallback ?report ?sup_config ?now
    ?sleep ?run_dir ?(resume = false) ?kill_at ?(epoch = 0)
    pipeline ~target ~decoder =
  let report = match report with Some r -> r | None -> Report.create () in
  let now = match now with Some f -> f | None -> Unix.gettimeofday in
  let sup_cfg = Option.value ~default:Sup.default_config sup_config in
  let base_sup = Sup.create ~now ?sleep sup_cfg in
  let journal_setup =
    match run_dir with
    | None -> Ok (None, [])
    | Some dir ->
        Result.map
          (fun (j, completed, _torn) -> (Some j, completed))
          (Pipeline.open_journal ?kill_at ~report ~resume pipeline ~target dir)
  in
  match journal_setup with
  | Error _ as e -> e
  | Ok (journal, restored) ->
      let t =
        {
          cfg = config;
          pipeline;
          target;
          decoder;
          fallback;
          report;
          bucket =
            Bucket.create ~now ~rate:config.client_rate
              ~burst:config.client_burst ();
          now;
          base_sup;
          journal;
          st_lock = Mutex.create ();
          done_tbl = Hashtbl.create 64;
          state = Health.Starting;
          accepted = 0;
          rejected = 0;
          completed = 0;
          cancelled = 0;
          stream_seq = 0;
          busy = 0;
          killed = None;
          epoch;
        }
      in
      List.iter
        (fun (c : J.completed) ->
          Hashtbl.replace t.done_tbl c.J.c_fname
            { de_completed = c; de_restored = true })
        restored;
      t.state <- Health.Ready;
      Ok t

let resumed_functions t =
  Mutex.protect t.st_lock (fun () ->
      Hashtbl.fold
        (fun _ e n -> if e.de_restored then n + 1 else n)
        t.done_tbl 0)

let report t = t.report
let config t = t.cfg
let target t = t.target

(* ---- admission (caller side) ---- *)

(* Admission (readiness → target → function → bucket), the same for
   every request whoever steps it. A simulated crash leaves [state] at
   Ready, but a killed server admits nothing: it answers [Draining]. *)
let gate t (req : Proto.request) =
  let up =
    Mutex.protect t.st_lock (fun () ->
        t.state = Health.Ready && t.killed = None)
  in
  if not up then Error Proto.Draining
  else if req.rq_target <> t.target then
    Error
      (Proto.Bad_request
         (Printf.sprintf "server generates target %S, not %S" t.target
            req.rq_target))
  else if Pipeline.bundle_for t.pipeline.Pipeline.prep req.rq_fname = None
  then
    Error
      (Proto.Bad_request
         (Printf.sprintf "unknown interface function %S" req.rq_fname))
  else if not (Bucket.take t.bucket req.rq_client) then
    (* the bucket charges the attempt itself — a storming client cannot
       convert its whole burst into free admission probes *)
    Error (Proto.Budget_exhausted { client = req.rq_client })
  else Ok ()

(* A request the server turns away counts as rejected. *)
let refuse t r =
  Mutex.protect t.st_lock (fun () -> t.rejected <- t.rejected + 1);
  Error r

let request_budget_s t (req : Proto.request) =
  match req.rq_deadline_ms with
  | Some ms -> Some (float_of_int ms /. 1000.0)
  | None ->
      if t.cfg.deadline_ms > 0 then
        Some (float_of_int t.cfg.deadline_ms /. 1000.0)
      else None

(* ---- streams (statement granular) ----

   Every request runs as a stream: its decode advances one statement
   boundary per [stream_step]. The event loop and the router step the
   streams they open with [stream_start], interleaving many on one
   thread and shipping every statement as it is produced; [request]
   steps one to its final on the caller. Cancellation arrives through
   a {!Sup.cancel_token} attached to the stream's own forked
   supervisor, so it is checked at every statement boundary wherever
   the decode runs. Every stream passes the same admission gate and
   settles the same counters, so `accepted - completed` converges to
   zero whether a request finished, failed, expired or was
   cancelled. *)

type stream_kind =
  | Sunstarted  (* admitted, waiting for a decode slot *)
  | Sgenerate of Generate.stepper
  | Sreplay of done_entry  (* idempotent repeat: final frame only *)

type stream = {
  sr_req : Proto.request;
  sr_enqueued : float;
  sr_deadline : float option;  (* absolute; expiry while waiting *)
  sr_sup : Sup.t;  (* this stream's own fork *)
  sr_token : Sup.cancel_token;
  mutable sr_kind : stream_kind;
  mutable sr_result : Proto.reply option;  (* set once settled *)
}

type stream_event =
  | Sstmt of Generate.gen_stmt
  | Sdone of Proto.reply
  | Scancelled of { at_stmt : int }

let stmt_frame ~index (s : Generate.gen_stmt) =
  Proto.Fstmt
    {
      f_index = index;
      f_level = Degrade.name s.Generate.g_level;
      f_score = s.Generate.g_score;
      f_shape_ok = s.Generate.g_shape_ok;
      f_tokens = s.Generate.g_tokens;
    }

(* The decode itself begins lazily at the first [stream_step]: an
   admitted stream may wait for a slot, and a stream aborted while
   waiting must leave no journal trace. *)
let stream_start t (req : Proto.request) =
  match gate t req with
  | Error r -> refuse t r
  | Ok () ->
      let sup =
        Mutex.protect t.st_lock (fun () ->
            let seq = t.stream_seq in
            t.stream_seq <- seq + 1;
            t.accepted <- t.accepted + 1;
            t.busy <- t.busy + 1;
            Sup.fork ~index:seq t.base_sup)
      in
      let budget_s = request_budget_s t req in
      Sup.set_budget sup budget_s;
      let token = Sup.new_cancel () in
      Sup.set_cancel sup (Some token);
      let enqueued = t.now () in
      Ok
        {
          sr_req = req;
          sr_enqueued = enqueued;
          sr_deadline = Option.map (fun b -> enqueued +. b) budget_s;
          sr_sup = sup;
          sr_token = token;
          sr_kind = Sunstarted;
          sr_result = None;
        }

(* Decide replay-vs-generate and journal [Func_begin] — at slot
   assignment, not admission, so the done-table is consulted as late as
   possible and a never-started stream journals nothing. *)
let stream_begin t s =
  let req = s.sr_req in
  let cached =
    Mutex.protect t.st_lock (fun () -> Hashtbl.find_opt t.done_tbl req.rq_fname)
  in
  s.sr_kind <-
    (match cached with
    | Some entry -> Sreplay entry
    | None ->
        let bundle =
          Option.get (Pipeline.bundle_for t.pipeline.Pipeline.prep req.rq_fname)
        in
        let on_stmt =
          Option.map (fun j -> Pipeline.journal_begin j req.rq_fname) t.journal
        in
        Sgenerate
          (Generate.start ?fallback:t.fallback ~report:t.report ~sup:s.sr_sup
             ?on_stmt t.pipeline.Pipeline.prep.Pipeline.ctx bundle.Pipeline.tpl
             bundle.Pipeline.analysis bundle.Pipeline.hints ~target:t.target
             ~decoder:t.decoder))

(* Settle exactly once: every started stream ends here whatever its
   fate, so the journal-lag accounting cannot drift. The stream's fork
   is folded into [base_sup] here, where [health] counts it. *)
let settle t s ?(cancelled = false) reply =
  if s.sr_result = None then begin
    s.sr_result <- Some reply;
    Mutex.protect t.st_lock (fun () ->
        t.busy <- t.busy - 1;
        t.completed <- t.completed + 1;
        if cancelled then t.cancelled <- t.cancelled + 1;
        Sup.absorb t.base_sup s.sr_sup;
        match reply with
        | Proto.Rejected _ -> t.rejected <- t.rejected + 1
        | Proto.Done _ | Proto.Failed _ -> ())
  end

let stream_cancel t s =
  ignore t;
  Sup.cancel s.sr_token

(* Abort a stream that never got a slot (capacity shed, peer vanished
   while waiting): settles the counters with a typed rejection and
   guarantees the decode never begins. *)
let stream_abort t s ?(cancelled = false) reject =
  settle t s ~cancelled (Proto.Rejected reject)

(* One step of an unsettled stream. Whatever it raises, [stream_step]
   settles: journal appends included, nothing but a simulated crash
   escapes to the caller. *)
let rec step_unsettled t s =
  match s.sr_kind with
  | Sunstarted -> (
      (* first step = slot assignment: expire a stream that waited past
         its deadline, else materialise the decode (or the replay) and
         take the step proper *)
      match expired t ~enqueued:s.sr_enqueued ~deadline:s.sr_deadline with
      | Some r ->
          let reply = Proto.Rejected r in
          settle t s reply;
          Sdone reply
      | None ->
          stream_begin t s;
          step_unsettled t s)
  | Sreplay { de_completed; de_restored } ->
      let bundle =
        Option.get
          (Pipeline.bundle_for t.pipeline.Pipeline.prep s.sr_req.rq_fname)
      in
      let gf = Pipeline.func_of_completed bundle t.target de_completed in
      let reply = done_reply t gf ~restored:de_restored in
      settle t s reply;
      Sdone reply
  | Sgenerate sp -> (
      match Generate.step sp with
      | Generate.Step_stmt st -> Sstmt st
      | Generate.Step_done gf ->
          Option.iter (fun j -> Pipeline.journal_end j gf) t.journal;
          record_completed t s.sr_req.rq_fname gf;
          let reply = done_reply t gf ~restored:false in
          settle t s reply;
          Sdone reply)

let stream_step t s =
  match s.sr_result with
  | Some reply -> Sdone reply  (* settled: idempotent *)
  | None -> (
      match step_unsettled t s with
      | ev -> ev
      | exception
          Vega_robust.Fault.Fault
            (Vega_robust.Fault.Cancelled { at_stmt; _ } as f) ->
          (* typed, degrades cleanly: the fault is recorded (and
             journaled via the report subscription), the partial
             statement prefix stays in the journal with no seal, so a
             resume regenerates exactly this function *)
          Report.record t.report ~stage:"stream" f;
          settle t s ~cancelled:true
            (Proto.Rejected (Proto.Cancelled { at_stmt }));
          Scancelled { at_stmt }
      | exception J.Killed n ->
          (* simulated hard crash: remember it (the gate admits nothing
             more), settle the stream as crashed and let the crash
             unwind *)
          Mutex.protect t.st_lock (fun () ->
              if t.killed = None then t.killed <- Some n);
          settle t s (Proto.Failed killed_message);
          raise (J.Killed n)
      | exception e ->
          let reply = Proto.Failed (Printexc.to_string e) in
          settle t s reply;
          Sdone reply)

(* ---- in-process requests ---- *)

(* A stream stepped to its final on the calling domain, statement
   events skipped: how [request] and the router's [route] answer a
   request in process. *)
let step_to_final step =
  let rec go () =
    match step () with
    | Sstmt _ -> go ()
    | Sdone reply -> reply
    | Scancelled { at_stmt } -> Proto.Rejected (Proto.Cancelled { at_stmt })
  in
  go ()

(* One request, in process. A simulated crash answers the stream's
   settled [Failed] here; the server is marked killed, and [drain]
   re-raises the crash. *)
let request t req =
  match stream_start t req with
  | Error r -> Proto.Rejected r
  | Ok s -> (
      try step_to_final (fun () -> stream_step t s)
      with J.Killed _ -> Option.get s.sr_result)

(* ---- health ---- *)

(* Queue depth and cap, busy slots and slot count belong to whoever
   steps the streams: the event loop fills them into the replies it
   sends. A bare server knows only its admitted, unsettled streams,
   and every request's breaker lives and dies on its own fork. *)
let health t =
  Mutex.protect t.st_lock (fun () ->
      {
        (* a killed journal writer is a crash, whatever lifecycle state
           the server died in — probes must see it as not-Ready *)
        Health.h_state = (if t.killed <> None then Health.Stopped else t.state);
        h_queue_depth = 0;
        h_queue_cap = 0;
        h_busy = t.busy;
        h_domains = 0;
        h_accepted = t.accepted;
        h_rejected = t.rejected;
        h_completed = t.completed;
        h_deadline_hits = (Sup.stats t.base_sup).Sup.sup_deadline_hits;
        h_breaker_open = false;
        h_journal_records =
          Option.fold ~none:0 ~some:Pipeline.journal_records t.journal;
        h_journal_lag = t.accepted - t.completed;
        h_cancelled = t.cancelled;
        h_epoch = t.epoch;
      })

(* ---- results (bit-identity surface) ---- *)

let functions t =
  Mutex.protect t.st_lock (fun () ->
      List.filter_map
        (fun (b : Pipeline.bundle) ->
          let fname = b.Pipeline.spec.Vega_corpus.Spec.fname in
          Option.map
            (fun e -> Pipeline.func_of_completed b t.target e.de_completed)
            (Hashtbl.find_opt t.done_tbl fname))
        t.pipeline.Pipeline.prep.Pipeline.bundles)

(* ---- drain ---- *)

let drain t =
  let proceed =
    Mutex.protect t.st_lock (fun () ->
        match t.state with
        | Health.Stopped -> false
        | Health.Starting | Health.Ready | Health.Draining ->
            t.state <- Health.Draining;
            true)
  in
  if proceed then begin
    let killed = Mutex.protect t.st_lock (fun () -> t.killed) in
    Option.iter Pipeline.close_journal t.journal;
    Mutex.protect t.st_lock (fun () -> t.state <- Health.Stopped);
    match killed with Some n -> raise (J.Killed n) | None -> ()
  end
