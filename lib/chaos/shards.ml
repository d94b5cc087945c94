(* Sharded serving: the content-addressed cache round trip and the
   shard-storm-kill determinism check. *)

module R = Vega_robust
module S = Vega_serve
module Sh = Vega_shard

let run (cx : Ctx.t) =
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
  let mkreq = S.Proto.request ~client:"shard" ~target in

  (* ---- the cache answers repeats bit-identically with zero decoder
     involvement; a flipped byte is detected, evicted, recorded as a
     fault, and the request falls through to generation ---- *)
  (let name = "shard-cache" in
   scenario name;
   let decodes = Atomic.make 0 in
   let counting fv =
     Atomic.incr decodes;
     decoder fv
   in
   let scfg =
     Ctx.server_config ~queue_cap:(List.length fleet_fnames + 4) ~burst:1000.0
   in
   let cache_dir = Filename.concat run_dir "shard-cache" in
   Ctx.clear_cache cache_dir;
   let report = R.Report.create () in
   let cache =
     Sh.Cache.create ~report ~dir:cache_dir ~fingerprint ~desc_hash ()
   in
   let rcfg =
     {
       Sh.Router.default_config with
       Sh.Router.retries = 0;
       probe_every = 0;
       seed;
     }
   in
   (* a fresh two-shard fleet per round: a repeat answered by a new
      fleet can only have come from the cache, never a shard's
      in-memory replay table *)
   let with_fleet k =
     let mk_srv () =
       S.Server.create ~config:scfg t ~target ~decoder:counting
     in
     match (mk_srv (), mk_srv ()) with
     | Ok a, Ok b -> (
         let eps =
           [ Sh.Router.of_server ~name:"s0" a;
             Sh.Router.of_server ~name:"s1" b ]
         in
         match
           Sh.Router.create ~config:rcfg ~cache ~report
             ~sleep:(fun _ -> ())
             ~fingerprint ~desc_hash eps
         with
         | Error e ->
             violation "%s: router creation failed (%s)" name e;
             None
         | Ok router ->
             let r = k router in
             Sh.Router.drain router;
             Some r)
     | Error e, _ | _, Error e ->
         violation "%s: shard server failed to start (%s)" name e;
         None
   in
   let round fnames =
     with_fleet (fun router ->
         let replies =
           List.map (fun f -> Sh.Router.route router (mkreq f)) fnames
         in
         (Sh.Router.decisions router, replies))
   in
   match round fleet_fnames with
   | None -> ()
   | Some (d1, replies1) -> (
       let cold = Atomic.get decodes in
       check (name ^ ": cold round reaches the decoder") (cold > 0);
       check (name ^ ": cold round is answered by the shards")
         (String.for_all (fun c -> c = 'A') d1);
       check (name ^ ": cold round completes every request")
         (Ctx.all_done replies1);
       match round fleet_fnames with
       | None -> ()
       | Some (d2, replies2) -> (
           check (name ^ ": warm round is answered entirely by the cache")
             (d2 = String.make (List.length fleet_fnames) 'C');
           check (name ^ ": cache hits touch no decoder")
             (Atomic.get decodes = cold);
           check (name ^ ": cached replies bit-identical to the cold round")
             (List.map S.Proto.encode_reply replies2
             = List.map S.Proto.encode_reply replies1);
           let victim_f = List.hd fleet_fnames in
           let cinj = R.Inject.create ~seed R.Inject.Cache_corrupt in
           match
             R.Inject.corrupt_cache_entry cinj
               ~path:(Sh.Cache.path cache ~fname:victim_f)
           with
           | None -> violation "%s: no cache entry to corrupt" name
           | Some off -> (
               info "flipped byte %d of %s's cache entry" off victim_f;
               match round [ victim_f ] with
               | None -> ()
               | Some (d3, replies3) ->
                   check
                     (name
                    ^ ": corrupt entry falls through to generation")
                     (d3 = "A" && Atomic.get decodes > cold);
                   check (name ^ ": corruption recorded as a cache fault")
                     (R.Report.count_class report R.Fault.Ccache >= 1);
                   check
                     (name
                    ^ ": regenerated reply bit-identical to the cold one")
                     (List.map S.Proto.encode_reply replies3
                     = [ S.Proto.encode_reply (List.hd replies1) ]);
                   let st = Sh.Cache.stats cache in
                   check (name ^ ": corrupt entry evicted")
                     (st.Sh.Cache.c_evictions >= 1);
                   check (name ^ ": regenerated result re-cached")
                     (Sh.Cache.get cache ~fname:victim_f <> None);
                   info
                     "cache: %d hit(s), %d miss(es), %d put(s), %d \
                      eviction(s), %d entries"
                     st.Sh.Cache.c_hits st.Sh.Cache.c_misses
                     st.Sh.Cache.c_puts st.Sh.Cache.c_evictions
                     st.Sh.Cache.c_entries))));

  (* ---- kill 1 of 3 shards at 4x aggregate queue capacity mid-storm:
     the accept/reroute/shed sequence is byte-reproducible under the
     seed, the restarted shard resumes from its own journal, and the
     final generated outputs are bit-identical to the unkilled run ---- *)
  (let name = "shard-storm-kill" in
   scenario name;
   let shards_n = 3 in
   let cap = 4 in
   let nf = List.length fleet_fnames in
   let n = 4 * shards_n * cap in
   let scfg = Ctx.server_config ~queue_cap:cap ~burst:(float_of_int (2 * n)) in
   let storm = R.Inject.create ~seed R.Inject.Queue_storm in
   let storm_fnames =
     List.map
       (fun i -> List.nth fleet_fnames (i mod nf))
       (R.Inject.storm_order storm n)
   in
   let rcfg policy =
     {
       Sh.Router.default_config with
       Sh.Router.policy;
       retries = 0;
       probe_every = 0;
       breaker_threshold = 2;
       breaker_cooldown = 4;
       seed;
     }
   in
   let owner =
     Ctx.owner ~fingerprint ~desc_hash
       (List.init shards_n (Printf.sprintf "shard-%d"))
   in
   let storm_dir tag = Filename.concat run_dir ("shard-storm-" ^ tag) in
   (* a three-shard fleet, each with its own journal segment; [kill]
      arms one shard's journal with a crash offset *)
   let mk_fleet ~tag ~policy ~kill =
     let rec go i acc =
       if i < 0 then Some acc
       else begin
         let dir = Sh.Router.shard_run_dir (storm_dir tag) i in
         clear dir;
         let kill_at =
           match kill with Some (v, at) when v = i -> Some at | _ -> None
         in
         match
           S.Server.create ~config:scfg ~run_dir:dir ?kill_at t ~target
             ~decoder
         with
         | Ok srv -> go (i - 1) (srv :: acc)
         | Error e ->
             violation "%s: shard %d failed to start (%s)" name i e;
             None
       end
     in
     match go (shards_n - 1) [] with
     | None -> None
     | Some servers -> (
         let eps =
           List.mapi
             (fun i srv ->
               Sh.Router.of_server ~name:(Printf.sprintf "shard-%d" i) srv)
             servers
         in
         let report = R.Report.create () in
         match
           Sh.Router.create ~config:(rcfg policy) ~report
             ~sleep:(fun _ -> ())
             ~fingerprint ~desc_hash eps
         with
         | Error e ->
             violation "%s: router creation failed (%s)" name e;
             None
         | Ok router -> Some (servers, router, report))
   in
   match mk_fleet ~tag:"ref" ~policy:Sh.Router.Reroute ~kill:None with
   | None -> ()
   | Some (ref_servers, ref_router, _) -> (
       let ref_replies =
         List.map (fun f -> Sh.Router.route ref_router (mkreq f))
           storm_fnames
       in
       let d_ref = Sh.Router.decisions ref_router in
       check (name ^ ": unkilled storm completes every request")
         (Ctx.all_done ref_replies);
       check (name ^ ": unkilled storm routes every request to its owner")
         (d_ref = String.make n 'A');
       let expect =
         render (merge_funcs (List.map S.Server.functions ref_servers))
       in
       let kinj = R.Inject.create ~seed R.Inject.Shard_kill in
       let victim = R.Inject.shard_victim kinj ~shards:shards_n in
       let victim_name = Printf.sprintf "shard-%d" victim in
       (* the victim's share of the storm — the functions the
          restarted shard must serve again for the final-output
          identity check to cover the same set as the reference *)
       let victim_fnames =
         List.filter
           (fun f -> owner f = victim_name)
           (List.sort_uniq compare storm_fnames)
       in
       check (name ^ ": the victim owns at least one function")
         (victim_fnames <> []);
       let victim_records =
         (S.Server.health (List.nth ref_servers victim))
           .S.Health.h_journal_records
       in
       Sh.Router.drain ref_router;
       (* clamp into the middle half of the victim's journal: past the
          midpoint so at least one function is durably complete when
          the crash lands, short of the tail so a meaningful stretch
          of the storm still reroutes *)
       let k =
         max
           (max 2 (victim_records / 2))
           (min
              (R.Inject.kill_offset kinj ~records:victim_records)
              (victim_records * 3 / 4))
       in
       info "victim shard-%d, kill-at %d of its %d journal record(s)"
         victim k victim_records;
       let killed_run ~tag ~policy =
         match mk_fleet ~tag ~policy ~kill:(Some (victim, k)) with
         | None -> None
         | Some (servers, router, report) ->
             let replies =
               List.map (fun f -> Sh.Router.route router (mkreq f))
                 storm_fnames
             in
             let d = Sh.Router.decisions router in
             let funcs = List.map S.Server.functions servers in
             (match Sh.Router.drain router with
             | () -> violation "%s: kill-at %d never fired (%s)" name k tag
             | exception R.Journal.Killed rn ->
                 Ctx.check_kill cx name k rn);
             check (name ^ ": shard failures recorded by the router")
               (R.Report.count_class report R.Fault.Cshard > 0);
             Some (d, replies, funcs)
       in
       match
         ( killed_run ~tag:"kill-a" ~policy:Sh.Router.Reroute,
           killed_run ~tag:"kill-b" ~policy:Sh.Router.Reroute )
       with
       | Some (d1, replies1, funcs1), Some (d2, _, _) -> (
           check (name ^ ": same seed, same accept/reroute sequence")
             (d1 = d2);
           check (name ^ ": reroute policy still completes every request")
             (Ctx.all_done replies1);
           check (name ^ ": at least one request rerouted off the victim")
             (String.contains d1 'R');
           info "reroute decisions %s" d1;
           (match killed_run ~tag:"shed" ~policy:Sh.Router.Shed with
           | None -> ()
           | Some (d3, replies3, _) ->
               check
                 (name
                ^ ": shed decisions differ from reroute exactly at R->D")
                 (String.length d3 = String.length d1
                 && List.for_all2
                      (fun a b -> a = b || (a = 'R' && b = 'D'))
                      (List.init (String.length d1) (String.get d1))
                      (List.init (String.length d3) (String.get d3)));
               check (name ^ ": at least one request shed") (String.contains d3 'D');
               List.iteri
                 (fun i reply ->
                   if d3.[i] = 'D' then
                     match reply with
                     | S.Proto.Rejected (S.Proto.Shard_down { shard })
                       when shard = victim_name ->
                         ()
                     | _ ->
                         violation
                           "%s: shed request %d lacks a shard-down \
                            rejection naming the victim"
                           name i)
                 replies3);
           (* the victim's own journal segment: tear the tail (when
              there is more than the header plus one record to lose),
              restart, and the shard resumes its own functions *)
           let victim_dir =
             Sh.Router.shard_run_dir (storm_dir "kill-a") victim
           in
           if k > 2 then
             R.Journal.tear ~path:(Vega.Pipeline.journal_path victim_dir);
           match
             S.Server.create ~config:scfg ~run_dir:victim_dir ~resume:true
               t ~target ~decoder
           with
           | Error e -> violation "%s: victim resume failed (%s)" name e
           | Ok rsrv ->
               let restored = S.Server.resumed_functions rsrv in
               check
                 (name
                ^ ": restarted victim resumes from its own journal")
                 (restored > 0);
               let vreplies =
                 List.map
                   (fun f -> S.Server.request rsrv (mkreq f))
                   victim_fnames
               in
               check (name ^ ": restarted victim answers its functions")
                 (Ctx.all_done vreplies);
               check (name ^ ": at least one reply restored from journal")
                 (List.exists Ctx.resumed vreplies);
               let survivors =
                 List.filteri (fun i _ -> i <> victim) funcs1
               in
               let got =
                 render
                   (merge_funcs (S.Server.functions rsrv :: survivors))
               in
               S.Server.drain rsrv;
               if got <> expect then
                 violation
                   "%s: final outputs differ from the unkilled run \
                    (kill-at %d)"
                   name k
               else
                 info
                   "kill-at %d: final outputs bit-identical (%d \
                    resumed on shard-%d)"
                   k restored victim)
       | _ -> ()))
