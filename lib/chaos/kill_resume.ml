(* Kill-and-resume determinism: crash a durable run after K journal
   records, tear the tail mid-record, resume, and require output
   bit-identical to an uninterrupted run, with every function the torn
   journal seals restored rather than regenerated. *)

module R = Vega_robust

let run (cx : Ctx.t) ~kill_at =
  let { Ctx.sink; target; run_dir; domains; pipeline = t; decoder; _ } = cx in
  let scenario = Sink.scenario sink and check = Sink.check sink in
  let violation fmt = Sink.violation sink fmt in
  let info fmt = Sink.info sink fmt in
  let render = Ctx.render and clear = Ctx.clear in
  let name = "kill-resume" in
  scenario name;
  let ref_dir = Filename.concat run_dir "ref" in
  clear ref_dir;
  match
    Vega.Pipeline.generate_backend_durable ~run_dir:ref_dir t ~target
      ~decoder
  with
  | Error e -> violation "%s: reference run failed (%s)" name e
  | Ok refo ->
      let expect = render refo.Vega.Pipeline.d_funcs in
      let total = refo.Vega.Pipeline.d_records in
      info "reference run: %d journal record(s)" total;
      let offsets =
        if kill_at > 0 then [ kill_at ]
        else
          List.filter
            (fun k -> k >= 1)
            (List.sort_uniq compare [ 1; (total + 1) / 2; total - 1 ])
      in
      List.iter
        (fun k ->
          let dir = Filename.concat run_dir (Printf.sprintf "kill%d" k) in
          clear dir;
          match
            Vega.Pipeline.generate_backend_durable ~kill_at:k ~domains
              ~run_dir:dir t ~target ~decoder
          with
          | exception R.Journal.Killed n ->
              Ctx.check_kill cx name k n;
              (* tear the last durable record mid-write — except the
                 lone header, without which there is nothing to resume *)
              if k > 1 then
                R.Journal.tear ~path:(Vega.Pipeline.journal_path dir);
              let sealed = List.length (Ctx.sealed dir) in
              (match
                 Vega.Pipeline.generate_backend_durable ~resume:true
                   ~domains ~run_dir:dir t ~target ~decoder
               with
              | Error e ->
                  violation "%s: resume after kill-at %d failed (%s)" name
                    k e
              | Ok o ->
                  if k > 1 then
                    check
                      (Printf.sprintf
                         "%s: torn record recovered (kill-at %d)" name k)
                      o.Vega.Pipeline.d_torn;
                  check
                    (Printf.sprintf
                       "%s: resume covers every function (kill-at %d)"
                       name k)
                    (List.length o.Vega.Pipeline.d_funcs
                    = List.length refo.Vega.Pipeline.d_funcs);
                  let resumed = o.Vega.Pipeline.d_resumed
                  and regenerated = o.Vega.Pipeline.d_generated
                  and nfuncs = List.length refo.Vega.Pipeline.d_funcs in
                  check
                    (Printf.sprintf
                       "%s: resume restores the %d function(s) the \
                        journal seals (kill-at %d)"
                       name sealed k)
                    (resumed = sealed);
                  (* the crash and the tear cost the journal its last
                     two records, so at most two seals *)
                  if k = total - 1 then
                    check
                      (Printf.sprintf
                         "%s: the journal seals all but at most two \
                          function(s) (kill-at %d)"
                         name k)
                      (sealed >= nfuncs - 2);
                  if render o.Vega.Pipeline.d_funcs <> expect then
                    violation
                      "%s: resumed output differs from the uninterrupted \
                       run (kill-at %d)"
                      name k
                  else if domains = 1 then
                    info
                      "kill-at %d: bit-identical after resume (%d \
                       resumed, %d regenerated)"
                      k resumed regenerated
                  else begin
                    (* parallel workers interleave their appends at the
                       kill record, so only the total is reproducible *)
                    check
                      (Printf.sprintf
                         "%s: resumed + regenerated = every function \
                          (kill-at %d)"
                         name k)
                      (resumed + regenerated = nfuncs);
                    info
                      "kill-at %d: bit-identical after resume (%d \
                       function(s) resumed or regenerated)"
                      k (resumed + regenerated)
                  end)
          | Ok o ->
              check
                (Printf.sprintf
                   "%s: kill-at %d beyond the run end completes" name k)
                (o.Vega.Pipeline.d_records < k);
              if render o.Vega.Pipeline.d_funcs <> expect then
                violation "%s: un-killed run differs (kill-at %d)" name k
          | Error e ->
              violation "%s: killed run setup failed (kill-at %d: %s)"
                name k e)
        offsets
