(* Chaos soak: R seeded rounds composing shard kills, probe-drop
   stalls, refused respawns (flap -> quarantine), cache corruption and
   version skew against a self-healing fleet. Invariants per round:
   zero lost requests, byte-equal decision and event logs across
   same-seed repeats, quarantined shards frozen out of traffic with
   every affected request answered by a typed rejection, and merged
   outputs bit-identical to an unkilled single-shard reference. *)

module R = Vega_robust
module S = Vega_serve
module Sh = Vega_shard
module F = Vega_fleet.Fleet

(* Everything one chaos-soak fleet run leaves behind, captured before the
   fleet is drained so same-seed twins can be compared byte for byte. *)
type soak_run = {
  sk_d : string;  (* router decision log *)
  sk_ev : string;  (* fleet event log *)
  sk_replies : S.Proto.reply list;  (* storm replies, in order *)
  sk_extra : (string * S.Proto.reply) list;  (* post-corruption *)
  sk_tail : S.Proto.reply list;  (* full sweep after the faults *)
  sk_funcs : Vega.Generate.gen_func list list;  (* per-shard outputs *)
  sk_q : (string * int) list;  (* quarantined shards with crash counts *)
  sk_report : R.Report.t;
  sk_recovery : int option;  (* decisions from crash detect to respawned *)
  sk_epoch : int;  (* victim epoch at the end of the round *)
}

let run (cx : Ctx.t) ~rounds =
  let { Ctx.sink; target; seed; run_dir; pipeline = t; decoder;
        fnames = fleet_fnames; _ } =
    cx
  in
  let scenario = Sink.scenario sink and check = Sink.check sink in
  let violation fmt = Sink.violation sink fmt in
  let info fmt = Sink.info sink fmt in
  let render = Ctx.render and clear = Ctx.clear in
  let merge_funcs = Ctx.merge_funcs in
  let fingerprint, desc_hash = Sh.Cache.keys t ~target in
  let mkreq = S.Proto.request ~client:"chaos" ~target in
  let contains_sub s sub = Vega_util.Strutil.contains_sub ~sub s in
  let name = "chaos-soak" in
  scenario name;
  let nf = List.length fleet_fnames in
  check (name ^ ": corpus provides functions to serve") (nf > 0);
  if nf > 0 then begin
    let shards_n = 3 in
    let rounds = max 1 rounds in
    let scfg = Ctx.server_config ~burst:100000.0 in
    (* the unkilled single-shard reference every round must match *)
    match S.Server.create ~config:scfg t ~target ~decoder with
    | Error e -> violation "%s: reference server failed to start (%s)" name e
    | Ok ref_srv ->
        let ref_replies =
          List.map (fun f -> (f, S.Server.request ref_srv (mkreq f)))
            fleet_fnames
        in
        check (name ^ ": reference run completes every request")
          (Ctx.all_done (List.map snd ref_replies));
        let expect = render (merge_funcs [ S.Server.functions ref_srv ]) in
        S.Server.drain ref_srv;
        let shard_names =
          List.init shards_n (Printf.sprintf "shard-%d")
        in
        let owner = Ctx.owner ~fingerprint ~desc_hash shard_names in
        let owned nm = List.filter (fun f -> owner f = nm) fleet_fnames in
        (* the largest owner is a fallback victim whose armed kill is
           guaranteed at least two journal records even behind a cache
           (the cache dedups repeats, so a one-key shard may never
           reach its second record) *)
        let max_owner =
          List.fold_left
            (fun best nm ->
              if List.length (owned nm) > List.length (owned best) then nm
              else best)
            (List.hd shard_names) shard_names
        in
        for round = 0 to rounds - 1 do
          let checkr what =
            check (Printf.sprintf "%s[%d]: %s" name round what)
          in
          let sub = seed + (round * 7919) in
          (* three fault mixes, cycling when more rounds are asked for:
             0 = kill + cache corruption + version skew;
             1 = kill + probe-drop stall (hedging, no cache);
             2 = kill + refused respawn (flap -> quarantine, shed twin) *)
          let cache_round = round mod 3 = 0 in
          let stall_round = round mod 3 = 1 in
          let flap_round = round mod 3 = 2 in
          let kinj = R.Inject.create ~seed:sub R.Inject.Shard_kill in
          let victim_name =
            let c =
              Printf.sprintf "shard-%d"
                (R.Inject.shard_victim kinj ~shards:shards_n)
            in
            if List.length (owned c) >= 2 then c else max_owner
          in
          let stall_name =
            let cands =
              List.filter (fun nm -> nm <> victim_name) shard_names
            in
            let preferred =
              List.filter (fun nm -> owned nm <> []) cands
            in
            let pool = if preferred <> [] then preferred else cands in
            List.nth pool (abs sub mod List.length pool)
          in
          let kill_k = 2 in
          let storm = R.Inject.create ~seed:sub R.Inject.Queue_storm in
          let passes = if flap_round then 6 else 4 in
          let n = passes * nf in
          let storm_fnames =
            List.map
              (fun i -> List.nth fleet_fnames (i mod nf))
              (R.Inject.storm_order storm n)
          in
          info "round %d: victim %s (kill-at %d)%s%s, seed %d" round
            victim_name kill_k
            (if stall_round then ", probes dropped on " ^ stall_name
             else "")
            (if flap_round then ", respawns refused (flap)" else "")
            sub;
          let run_one ~tag ~policy =
            let violation fmt =
              violation ("%s[%d,%s]: " ^^ fmt) name round tag
            in
            let base =
              Filename.concat run_dir
                (Printf.sprintf "chaos-%d-%s" round tag)
            in
            let contacts = Hashtbl.create 4 in
            let hits nm =
              Option.value ~default:0 (Hashtbl.find_opt contacts nm)
            in
            let wrap_endpoint nm ep =
              {
                ep with
                Sh.Router.ep_stream =
                  (fun rq ->
                    Hashtbl.replace contacts nm (hits nm + 1);
                    ep.Sh.Router.ep_stream rq);
              }
            in
            let pinj = R.Inject.create ~seed:sub R.Inject.Probe_drop in
            let wrap_probe shard probe =
              if stall_round && shard = stall_name then
                R.Inject.wrap_dropping_probe pinj ~shard probe ()
              else probe ()
            in
            let report = R.Report.create () in
            let cache =
              if not cache_round then None
              else begin
                let dir = Filename.concat base "cache" in
                Ctx.clear_cache dir;
                Some
                  (Sh.Cache.create ~report ~dir ~fingerprint ~desc_hash
                     ())
              end
            in
            let specs =
              List.init shards_n (fun i ->
                  let nm = Printf.sprintf "shard-%d" i in
                  let dir = Sh.Router.shard_run_dir base i in
                  clear dir;
                  {
                    F.sp_name = nm;
                    sp_spawn =
                      (fun ~epoch ~resume ->
                        if flap_round && nm = victim_name && resume then
                          Error "respawn refused (chaos)"
                        else
                          S.Server.create ~config:scfg ~run_dir:dir
                            ~resume
                            ?kill_at:
                              (if nm = victim_name && epoch = 0 then
                                 Some kill_k
                               else None)
                            ~epoch t ~target ~decoder);
                  })
            in
            let fcfg =
              {
                F.default_config with
                F.probe_every = 2;
                probe_patience = 2;
                flap_k = 3;
                flap_window = 256;
                backoff_base = 1;
                seed = sub;
              }
            in
            let rcfg =
              {
                Sh.Router.default_config with
                Sh.Router.policy;
                retries = 0;
                probe_every = 0;
                breaker_threshold = 2;
                breaker_cooldown = 4;
                hedge_after = 2;
                seed = sub;
              }
            in
            match
              F.create ~config:fcfg ~router_config:rcfg ?cache ~report
                ~wrap_endpoint ~wrap_probe ~fingerprint ~desc_hash specs
            with
            | Error e ->
                violation "fleet failed to boot (%s)" e;
                None
            | Ok fleet ->
                let route f =
                  match F.request fleet (mkreq f) with
                  | r -> r
                  | exception e ->
                      violation "raw exception escaped the router (%s)"
                        (Printexc.to_string e);
                      S.Proto.Failed "escaped"
                in
                let replies = List.map route storm_fnames in
                (* mid-round cache corruption: the poisoned key must be
                   detected, evicted, recorded, and regenerated *)
                let extra =
                  match cache with
                  | None -> []
                  | Some c -> (
                      let cinj =
                        R.Inject.create ~seed:sub R.Inject.Cache_corrupt
                      in
                      let victim_f =
                        List.nth fleet_fnames (abs sub mod nf)
                      in
                      match
                        R.Inject.corrupt_cache_entry cinj
                          ~path:(Sh.Cache.path c ~fname:victim_f)
                      with
                      | None ->
                          violation "no cache entry to corrupt";
                          []
                      | Some _ -> [ (victim_f, route victim_f) ])
                in
                (* a version-skewed peer line gets the typed mismatch,
                   never a crash or a silent drop *)
                (match
                   S.Proto.decode_reply
                     (F.request_line fleet
                        (S.Proto.encode_command_at ~version:99
                           (S.Proto.Creq (mkreq (List.hd fleet_fnames)))))
                 with
                | S.Proto.Decoded
                    (S.Proto.Rejected
                       (S.Proto.Version_mismatch { got = 99; _ })) ->
                    ()
                | _ ->
                    violation
                      "version-skewed line not answered with the typed \
                       mismatch");
                (* quarantined shards must be frozen out: snapshot their
                   contact counts, sweep every function again, require
                   no growth and no live-ring membership *)
                let q = F.quarantined fleet in
                let frozen = List.map (fun (nm, _) -> (nm, hits nm)) q in
                List.iter
                  (fun (nm, _) ->
                    if
                      List.mem nm
                        (Sh.Router.live_shards (F.router fleet))
                    then
                      violation "quarantined %s still in the live ring" nm)
                  q;
                let tail = List.map route fleet_fnames in
                List.iter
                  (fun (nm, n0) ->
                    if hits nm <> n0 then
                      violation
                        "quarantined %s received traffic after quarantine" nm)
                  frozen;
                let recovery =
                  let first pick = List.find_map pick (F.events fleet) in
                  match
                    ( first (function
                        | F.Crash_detected { shard; decision }
                          when shard = victim_name ->
                            Some decision
                        | _ -> None),
                      first (function
                        | F.Respawned { shard; decision; _ }
                          when shard = victim_name ->
                            Some decision
                        | _ -> None) )
                  with
                  | Some d0, Some d1 -> Some (d1 - d0)
                  | _ -> None
                in
                let out =
                  {
                    sk_d = Sh.Router.decisions (F.router fleet);
                    sk_ev = F.event_log fleet;
                    sk_replies = replies;
                    sk_extra = extra;
                    sk_tail = tail;
                    sk_funcs =
                      List.map
                        (fun (_, srv) -> S.Server.functions srv)
                        (F.servers fleet);
                    sk_q = q;
                    sk_report = report;
                    sk_recovery = recovery;
                    sk_epoch = F.epoch fleet victim_name;
                  }
                in
                (try F.drain fleet
                 with e ->
                   violation "drain raised (%s)" (Printexc.to_string e));
                Some out
          in
          (match
             ( run_one ~tag:"a" ~policy:Sh.Router.Reroute,
               run_one ~tag:"b" ~policy:Sh.Router.Reroute )
           with
          | Some a, Some b ->
              let all_replies r =
                r.sk_replies @ List.map snd r.sk_extra @ r.sk_tail
              in
              checkr "zero lost requests (every reply Done under reroute)"
                (Ctx.all_done (all_replies a));
              checkr "same seed, byte-equal decision logs" (a.sk_d = b.sk_d);
              checkr "same seed, byte-equal fleet event logs"
                (a.sk_ev = b.sk_ev);
              checkr "same seed, bit-identical replies"
                (List.map S.Proto.encode_reply (all_replies a)
                = List.map S.Proto.encode_reply (all_replies b));
              checkr "victim crash detected"
                (contains_sub a.sk_ev ("K" ^ victim_name));
              checkr "at least one request rerouted off the victim"
                (String.contains a.sk_d 'R');
              if flap_round then begin
                checkr "flapping victim quarantined"
                  (List.mem_assoc victim_name a.sk_q);
                checkr "quarantine event logged"
                  (contains_sub a.sk_ev ("Q" ^ victim_name));
                checkr "flap fault recorded"
                  (R.Report.count_class a.sk_report R.Fault.Cflap >= 1)
              end
              else begin
                checkr "victim respawned from its journal"
                  (contains_sub a.sk_ev ("R" ^ victim_name));
                checkr "respawned victim runs a later epoch" (a.sk_epoch >= 1);
                checkr "nothing quarantined in a respawn round" (a.sk_q = []);
                match a.sk_recovery with
                | Some d ->
                    info
                      "round %d: victim recovered in %d decision(s) \
                       (detect -> respawned)"
                      round d
                | None ->
                    violation
                      "%s[%d]: no crash-to-respawn pair in the event log"
                      name round
              end;
              if stall_round then begin
                checkr "probe losses recorded"
                  (R.Report.count_class a.sk_report R.Fault.Cprobe >= 1);
                checkr "stalled shard classified"
                  (contains_sub a.sk_ev ("S" ^ stall_name));
                checkr "hedged decisions in the log"
                  (String.contains a.sk_d 'H')
              end;
              if cache_round then begin
                checkr "repeats answered from cache"
                  (String.contains a.sk_d 'C');
                checkr "corruption recorded as a cache fault"
                  (R.Report.count_class a.sk_report R.Fault.Ccache >= 1);
                match a.sk_extra with
                | [ (vf, rr) ] ->
                    checkr "regenerated reply bit-identical to the \
                            reference"
                      (Some (S.Proto.encode_reply rr)
                      = Option.map S.Proto.encode_reply
                          (List.assoc_opt vf ref_replies))
                | _ -> ()
              end;
              let got = render (merge_funcs a.sk_funcs) in
              if got <> expect then
                violation
                  "%s[%d]: merged outputs differ from the unkilled \
                   single-shard reference"
                  name round
              else
                info
                  "round %d: merged outputs bit-identical to the \
                   reference (decisions %s)"
                  round a.sk_d;
              if flap_round then begin
                match run_one ~tag:"shed" ~policy:Sh.Router.Shed with
                | None -> ()
                | Some sh ->
                    let all = all_replies sh in
                    checkr "no raw failure escapes under shed"
                      (List.for_all
                         (function
                           | S.Proto.Done _ | S.Proto.Rejected _ -> true
                           | S.Proto.Failed _ -> false)
                         all);
                    checkr "victim quarantined under shed"
                      (List.mem_assoc victim_name sh.sk_q);
                    let qrej =
                      List.filter
                        (function
                          | S.Proto.Rejected
                              (S.Proto.Shard_quarantined { shard; _ }) ->
                              shard = victim_name
                          | _ -> false)
                        all
                    in
                    checkr
                      "quarantine matched by typed Shard_quarantined \
                       rejections"
                      (qrej <> [] && String.contains sh.sk_d 'Q');
                    info
                      "round %d: %d typed quarantine rejection(s) under \
                       shed"
                      round (List.length qrej)
              end
          | _ -> ())
        done
  end
