(* What every faultcheck group shares: the sink, the run's parameters,
   one retrieval pipeline trained without faults, and the helpers the
   scenarios would otherwise each spell out. *)

module R = Vega_robust
module S = Vega_serve

type t = {
  sink : Sink.t;
  target : string;
  profile : Vega_target.Profile.t;
  seed : int;
  run_dir : string;
  domains : int;
  cfg : Vega.Pipeline.config;
  pipeline : Vega.Pipeline.t;
  decoder : Vega.Generate.decoder;
  fnames : string list;  (* the backend's interface functions *)
}

let create sink ~target ~profile ~seed ~run_dir ~domains =
  let clean_report = R.Report.create () in
  let prep = Vega.Pipeline.prepare ~report:clean_report () in
  let cfg =
    {
      Vega.Pipeline.default_config with
      train_cfg = { Vega.Codebe.tiny_train_config with epochs = 0 };
    }
  in
  let pipeline = Vega.Pipeline.train cfg prep in
  let decoder = Vega.Pipeline.retrieval_decoder pipeline in
  Sink.check sink "clean corpus prepares without faults"
    (R.Report.total clean_report = 0);
  {
    sink;
    target;
    profile;
    seed;
    run_dir;
    domains;
    cfg;
    pipeline;
    decoder;
    fnames = Vega.Pipeline.fnames pipeline;
  }

(* bit-exact rendering of generated functions, for identity checks *)
let render (gfs : Vega.Generate.gen_func list) =
  String.concat "\n"
    (List.map
       (fun (gf : Vega.Generate.gen_func) ->
         Printf.sprintf "%s %h [%s]" gf.Vega.Generate.gf_fname
           gf.Vega.Generate.gf_confidence
           (String.concat ";"
              (List.map
                 (fun (s : Vega.Generate.gen_stmt) ->
                   Printf.sprintf "%d,%d,%d,%h,%b,%s,%s"
                     s.Vega.Generate.g_col s.Vega.Generate.g_line
                     s.Vega.Generate.g_inst s.Vega.Generate.g_score
                     s.Vega.Generate.g_shape_ok
                     (R.Degrade.name s.Vega.Generate.g_level)
                     (String.concat " " s.Vega.Generate.g_tokens))
                 gf.Vega.Generate.gf_stmts)))
       gfs)

(* Per-shard outputs merged into one backend: first copy of each
   function wins, sorted by name. *)
let merge_funcs lists =
  let tbl = Hashtbl.create 32 in
  List.iter
    (List.iter (fun (gf : Vega.Generate.gen_func) ->
         if not (Hashtbl.mem tbl gf.Vega.Generate.gf_fname) then
           Hashtbl.add tbl gf.Vega.Generate.gf_fname gf))
    lists;
  List.sort
    (fun (a : Vega.Generate.gen_func) (b : Vega.Generate.gen_func) ->
      compare a.Vega.Generate.gf_fname b.Vega.Generate.gf_fname)
    (Hashtbl.fold (fun _ gf acc -> gf :: acc) tbl [])

let stmts gfs =
  List.concat_map
    (fun (gf : Vega.Generate.gen_func) -> gf.Vega.Generate.gf_stmts)
    gfs

let all_done replies =
  List.for_all (function S.Proto.Done _ -> true | _ -> false) replies

let resumed = function S.Proto.Done d -> d.r_resumed | _ -> false

(* A simulated crash armed at record [k] fired at record [n]. *)
let check_kill cx name k n =
  Sink.check cx.sink
    (Printf.sprintf "%s: crash lands on the armed record (kill-at %d)" name k)
    (n = k)

(* The owner of each key on the ring a router over [names] builds. *)
let owner ~fingerprint ~desc_hash names =
  let module Sh = Vega_shard in
  let ring =
    Sh.Ring.create ~replicas:Sh.Router.default_config.Sh.Router.replicas names
  in
  fun fname ->
    Sh.Ring.lookup ring (Sh.Cache.request_key ~fingerprint ~desc_hash ~fname)

let rmf f = if Sys.file_exists f then Sys.remove f

(* The functions a run dir's journal seals, by name. *)
let sealed dir =
  let rc = R.Journal.read ~path:(Vega.Pipeline.journal_path dir) () in
  List.sort compare
    (List.map
       (fun (c : R.Journal.completed) -> c.R.Journal.c_fname)
       (snd (R.Journal.replay rc.R.Journal.r_records)))

(* Forget a durable run dir's journal. *)
let clear dir =
  rmf (Vega.Pipeline.journal_path dir);
  rmf (Vega.Pipeline.journal_path dir ^ ".tmp")

(* Forget a result cache's entries. *)
let clear_cache dir =
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
        if
          Filename.check_suffix f Vega_shard.Cache.entry_ext
          || Filename.check_suffix f ".tmp"
        then rmf (Filename.concat dir f))
      (Sys.readdir dir)

(* A server that never rate-limits a client. *)
let server_config ~burst =
  {
    S.Server.default_config with
    S.Server.client_burst = burst;
    client_rate = 0.0;
  }
