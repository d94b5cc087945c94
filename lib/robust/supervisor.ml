type config = {
  breaker_threshold : int;
  breaker_cooldown : int;
  max_retries : int;
  backoff_base_s : float;
  backoff_max_s : float;
  func_deadline_s : float;
  jitter_seed : int;
}

let default_config =
  {
    breaker_threshold = 5;
    breaker_cooldown = 25;
    max_retries = 2;
    backoff_base_s = 0.05;
    backoff_max_s = 1.0;
    func_deadline_s = 30.0;
    jitter_seed = 0x5eed;
  }

type breaker = Breaker.state = Closed of int | Open of int | Half_open

(* A cancel token is a shared flag set by the connection owner (event
   loop, router) and observed by whichever domain runs the decode. An
   [Atomic.t] because setter and observer may live on different
   domains; checked only at statement boundaries so a cancel never
   tears a statement in half. *)
type cancel_token = bool Atomic.t

let new_cancel () : cancel_token = Atomic.make false
let cancel (tok : cancel_token) = Atomic.set tok true
let cancel_requested (tok : cancel_token) = Atomic.get tok

type stats = {
  mutable sup_functions : int;
  mutable sup_retried : int;
  mutable sup_breaker_opened : int;
  mutable sup_breaker_skips : int;
  mutable sup_deadline_hits : int;
}

type t = {
  cfg : config;
  now : unit -> float;
  sleep : float -> unit;
  rng : Vega_util.Rng.t;
  st : stats;
  mutable fname : string;
  mutable deadline : float option;
  mutable budget_override : float option;
  mutable breaker : breaker;
  mutable cancel_tok : cancel_token option;
}

let monotonic_now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let create ?(now = monotonic_now) ?(sleep = Unix.sleepf) cfg =
  {
    cfg;
    now;
    sleep;
    rng = Vega_util.Rng.create cfg.jitter_seed;
    st =
      {
        sup_functions = 0;
        sup_retried = 0;
        sup_breaker_opened = 0;
        sup_breaker_skips = 0;
        sup_deadline_hits = 0;
      };
    fname = "";
    deadline = None;
    budget_override = None;
    breaker = Breaker.initial;
    cancel_tok = None;
  }

let config t = t.cfg
let stats t = t.st
let breaker_state t = t.breaker

(* A supervisor carries mutable per-function state (deadline, breaker,
   stats) and must not be shared across domains: each worker gets a
   fork, and the parent absorbs its stats after the join. Each fork
   draws jitter from its own seeded stream — the base seed mixed with
   the domain index — so parallel retry schedules are reproducible run
   to run yet decorrelated across workers (no synchronized retry
   storms). *)
let fork ?(index = 0) t =
  let seed = Vega_util.Rng.index_seed t.cfg.jitter_seed index in
  create ~now:t.now ~sleep:t.sleep { t.cfg with jitter_seed = seed }

let absorb t child =
  let s = t.st and c = child.st in
  s.sup_functions <- s.sup_functions + c.sup_functions;
  s.sup_retried <- s.sup_retried + c.sup_retried;
  s.sup_breaker_opened <- s.sup_breaker_opened + c.sup_breaker_opened;
  s.sup_breaker_skips <- s.sup_breaker_skips + c.sup_breaker_skips;
  s.sup_deadline_hits <- s.sup_deadline_hits + c.sup_deadline_hits

let set_budget t budget_s = t.budget_override <- budget_s
let set_cancel t tok = t.cancel_tok <- tok

let check_cancel ?(at_stmt = 0) t =
  match t.cancel_tok with
  | Some tok when Atomic.get tok ->
      raise (Fault.Fault (Fault.Cancelled { fname = t.fname; at_stmt }))
  | _ -> ()

let budget_s t = Option.value ~default:t.cfg.func_deadline_s t.budget_override

let start_function t fname =
  t.fname <- fname;
  t.deadline <- Some (t.now () +. budget_s t);
  t.st.sup_functions <- t.st.sup_functions + 1

let end_function t =
  t.fname <- "";
  t.deadline <- None

let backoff_delay t attempt =
  Breaker.backoff ~base:t.cfg.backoff_base_s ~max:t.cfg.backoff_max_s t.rng
    attempt

let check_deadline t =
  match t.deadline with
  | Some d when t.now () >= d ->
      t.st.sup_deadline_hits <- t.st.sup_deadline_hits + 1;
      raise
        (Fault.Fault
           (Fault.Deadline_exceeded
              {
                fname = t.fname;
                budget_ms = int_of_float (budget_s t *. 1000.0);
              }))
  | _ -> ()

(* Faults worth a backoff-and-retry: transient decoder trouble. Corrupt
   inputs, exhausted budgets, and traps fail the same way every time. *)
let retryable fault =
  match Fault.cls_of fault with
  | Fault.Cdecoder | Fault.Cscore | Fault.Cstage -> true
  | _ -> false

(* Faults the breaker counts: the decoder itself misbehaving. *)
let decoder_family fault =
  match Fault.cls_of fault with
  | Fault.Cdecoder | Fault.Cscore -> true
  | _ -> false

let note_failure t fault =
  let before = t.breaker in
  t.breaker <-
    Breaker.failure ~threshold:t.cfg.breaker_threshold
      ~cooldown:t.cfg.breaker_cooldown ~counted:(decoder_family fault) before;
  if Breaker.tripped ~before t.breaker then
    t.st.sup_breaker_opened <- t.st.sup_breaker_opened + 1

let guard t f =
  check_deadline t;
  let verdict, breaker = Breaker.admit t.breaker in
  t.breaker <- breaker;
  if verdict = Breaker.Skip then begin
    t.st.sup_breaker_skips <- t.st.sup_breaker_skips + 1;
    raise
      (Fault.Fault
         (Fault.Breaker_open
            { fname = t.fname; failures = t.cfg.breaker_threshold }))
  end;
  let rec attempt n =
    check_deadline t;
    match f () with
    | v ->
        t.breaker <- Breaker.success t.breaker;
        v
    | exception Fault.Fault fault ->
        note_failure t fault;
        let may_retry =
          verdict <> Breaker.Probe && retryable fault && n < t.cfg.max_retries
          && Breaker.closed t.breaker
        in
        if may_retry then begin
          t.sleep (backoff_delay t n);
          t.st.sup_retried <- t.st.sup_retried + 1;
          attempt (n + 1)
        end
        else raise (Fault.Fault fault)
  in
  attempt 0
