module Vfs = Vega_tdlang.Vfs
module Corpus = Vega_corpus.Corpus

type kind =
  | Decoder_raise
  | Decoder_nan
  | Decoder_garbage
  | Corpus_mangle
  | Descfile_garbage
  | Decoder_stall
  | Queue_storm
  | Request_kill
  | Register_mangle
  | Shard_kill
  | Cache_corrupt
  | Probe_drop
  | Conn_half_close
  | Slow_client
  | Cancel_mid_decode

type plan = { seed : int; kind : kind; every : int }

type t = { plan : plan; mutable opportunities : int; mutable injected : int }

let create ?(every = 1) ~seed kind =
  { plan = { seed; kind; every = max 1 every }; opportunities = 0; injected = 0 }

let injected t = t.injected
let opportunities t = t.opportunities

(* Deterministic firing: the [every]-th opportunity, phase-shifted by the
   seed so different seeds hit different statements. No wall clock, no
   global state — a plan replays identically. *)
let fire t =
  let n = t.opportunities in
  t.opportunities <- n + 1;
  let hit = (n + t.plan.seed) mod t.plan.every = 0 in
  if hit then t.injected <- t.injected + 1;
  hit

let wrap_decoder t decode fv =
  let inject =
    match t.plan.kind with
    | Decoder_raise | Decoder_nan | Decoder_garbage -> fire t
    | Corpus_mangle | Descfile_garbage | Decoder_stall | Queue_storm
    | Request_kill | Register_mangle | Shard_kill | Cache_corrupt
    | Probe_drop | Conn_half_close | Slow_client | Cancel_mid_decode ->
        false
  in
  if not inject then decode fv
  else
    match t.plan.kind with
    | Decoder_raise ->
        raise
          (Fault.Fault
             (Fault.Decoder_failure
                {
                  fname = "<injected>";
                  stage = "decoder";
                  message = "injected decoder failure";
                }))
    | Decoder_nan ->
        let toks, probs = decode fv in
        (toks, Array.make (max 1 (Array.length probs)) Float.nan)
    | Decoder_garbage ->
        let toks, probs = decode fv in
        (toks, Array.make (max 1 (Array.length probs)) Float.neg_infinity)
    | Corpus_mangle | Descfile_garbage | Decoder_stall | Queue_storm
    | Request_kill | Register_mangle | Shard_kill | Cache_corrupt
    | Probe_drop | Conn_half_close | Slow_client | Cancel_mid_decode ->
        assert false

(* Register-mangle: delete selected instruction lines from an emitted
   assembly listing. The selector is injected by the caller (e.g. "this
   line restores a callee-saved register") so this library stays
   backend-agnostic; firing counts one opportunity per candidate line,
   keeping the plan's replay guarantee. *)
let mangle_asm t ~candidate asm =
  match t.plan.kind with
  | Register_mangle ->
      String.split_on_char '\n' asm
      |> List.filter (fun line -> not (candidate line && fire t))
      |> String.concat "\n"
  | _ -> asm

(* ---- server-side fault classes (the vega.serve faultcheck harness) ---- *)

(* Slow-decoder stall: on every fired opportunity, burn wall clock (or a
   virtual clock — [stall] is injectable) before decoding. The decode
   itself still succeeds; the damage is the per-request deadline the
   supervisor then trips on the next guarded call. *)
let wrap_stalling_decoder t ~stall decode fv =
  (match t.plan.kind with
  | Decoder_stall -> if fire t then stall ()
  | _ -> ());
  decode fv

(* Queue-full storm: a seeded submission order for an [n]-request burst.
   The permutation is a pure function of the plan's seed, so the
   admission decisions a bounded queue makes against it replay
   bit-identically — the property the serve overload scenario checks. *)
let storm_order t n =
  let rng = Vega_util.Rng.create (t.plan.seed lxor 0x570124) in
  let order = Array.init n Fun.id in
  Vega_util.Rng.shuffle rng order;
  t.injected <- t.injected + n;
  t.opportunities <- t.opportunities + n;
  Array.to_list order

(* Mid-request kill: a deterministic journal offset to arm [kill_at]
   with, strictly after the header (offset 1) so a resume has a run to
   pick up, and at most the final record. *)
let kill_offset t ~records =
  if records <= 1 then 1
  else begin
    t.injected <- t.injected + 1;
    t.opportunities <- t.opportunities + 1;
    2 + ((t.plan.seed * 0x9E3779B9) land max_int) mod (records - 1)
  end

(* ---- router-tier fault classes (the vega.shard faultcheck harness) ---- *)

(* Shard-kill: pick the victim shard deterministically from the seed.
   The caller then arms that shard's journal [kill_at] (via
   {!kill_offset}) so the "kill" is a real mid-write crash, not a mock. *)
let shard_victim t ~shards =
  if shards <= 0 then invalid_arg "Inject.shard_victim: shards <= 0";
  t.injected <- t.injected + 1;
  t.opportunities <- t.opportunities + 1;
  ((t.plan.seed * 0x9E3779B9) land max_int) mod shards

(* Probe-drop: swallow selected health probes. The probe still counts a
   router decision on the fleet's clock, so a dropped probe is a typed
   [Probe_loss] fault the supervisor tolerates — K consecutive losses,
   not one, classify the shard. *)
let wrap_dropping_probe t ~shard probe x =
  let inject = match t.plan.kind with Probe_drop -> fire t | _ -> false in
  if inject then
    raise
      (Fault.Fault (Fault.Probe_loss { shard; detail = "injected probe drop" }))
  else probe x

(* ---- connection-chaos fault classes (the streaming faultcheck harness) ----

   All three produce *schedules*: pure functions of the plan's seed that
   the scripted event-loop clients act out on the engine's tick clock.
   Nothing here touches a socket — determinism comes from the schedule,
   replay comes from the engine. *)

(* Cancel-mid-decode: for each of [streams] streams, decide whether a
   cancel frame is sent and at which statement boundary (in
   [0, max_stmt)). One opportunity per stream; selected streams carry a
   seeded cancel offset. *)
let cancel_schedule t ~streams ~max_stmt =
  match t.plan.kind with
  | Cancel_mid_decode ->
      let rng = Vega_util.Rng.create (t.plan.seed lxor 0xCA11CE) in
      List.filter_map
        (fun i ->
          let at = Vega_util.Rng.int rng (max 1 max_stmt) in
          if fire t then Some (i, at) else None)
        (List.init streams Fun.id)
  | _ -> []

(* Slow-client: which of [conns] connections read their socket at a
   crawl (a seeded per-tick byte budget small enough to trip the
   write-buffer high-water mark). One opportunity per connection. *)
let slow_clients t ~conns =
  match t.plan.kind with
  | Slow_client ->
      let rng = Vega_util.Rng.create (t.plan.seed lxor 0x510C) in
      List.filter_map
        (fun i ->
          let budget = 1 + Vega_util.Rng.int rng 16 in
          if fire t then Some (i, budget) else None)
        (List.init conns Fun.id)
  | _ -> []

(* Conn-half-close: for each of [streams] streams, whether the peer
   half-closes (EOF) mid-stream and after how many statement frames.
   The engine must turn each into a typed cancellation, never a raw
   exception. *)
let half_close_at t ~streams ~max_stmt =
  match t.plan.kind with
  | Conn_half_close ->
      let rng = Vega_util.Rng.create (t.plan.seed lxor 0x4A1F) in
      List.filter_map
        (fun i ->
          let at = Vega_util.Rng.int rng (max 1 max_stmt) in
          if fire t then Some (i, at) else None)
        (List.init streams Fun.id)
  | _ -> []

(* Cache-corrupt: flip one seeded byte of an on-disk cache entry in
   place. Returns the flipped offset, or [None] when the kind doesn't
   apply or the file is empty/unreadable. *)
let corrupt_cache_entry t ~path =
  match t.plan.kind with
  | Cache_corrupt -> (
      match In_channel.with_open_bin path In_channel.input_all with
      | "" -> None
      | contents ->
          t.injected <- t.injected + 1;
          t.opportunities <- t.opportunities + 1;
          let len = String.length contents in
          let off = ((t.plan.seed * 0x9E3779B9) land max_int) mod len in
          let bytes = Bytes.of_string contents in
          Bytes.set bytes off
            (Char.chr (Char.code (Bytes.get bytes off) lxor 0x01));
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_bytes oc bytes);
          Some off
      | exception Sys_error _ -> None)
  | _ -> None

let corrupt_corpus t (corpus : Corpus.t) =
  let groups =
    List.map
      (fun (g : Corpus.group) ->
        match g.Corpus.impls with
        (* only groups with >= 2 implementations: the group must survive
           with the remaining ones, losing coverage, not existence *)
        | (impl : Corpus.impl) :: (_ :: _ as rest) when fire t ->
            {
              g with
              Corpus.impls =
                { impl with Corpus.target = Printf.sprintf "__corrupt%d__" t.plan.seed }
                :: rest;
            }
        | _ -> g)
      corpus.Corpus.groups
  in
  { corpus with Corpus.groups }

let garbage = "\000\031corrupted\255\254\000 GARBAGE \000\127\000"

let corrupt_descfiles t vfs ~target =
  List.filter_map
    (fun (path, _) ->
      if fire t then begin
        Vfs.add vfs ~path garbage;
        Some path
      end
      else None)
    (Vfs.files_under_dirs vfs (Vfs.tgtdirs target))

let looks_corrupted contents =
  String.exists (fun c -> c = '\000' || c = '\255') contents

let scan_vfs ?report vfs ~target =
  List.filter_map
    (fun (path, contents) ->
      if looks_corrupted contents then begin
        let fault =
          Fault.Descfile_corruption
            { path; detail = "binary garbage in description file" }
        in
        Option.iter (fun r -> Report.record r ~stage:"vfs-scan" fault) report;
        Some fault
      end
      else None)
    (Vfs.files_under_dirs vfs (Vfs.tgtdirs target))
