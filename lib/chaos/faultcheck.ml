type groups = {
  matrix : bool;
  kill_resume : int option;
  shard : bool;
  soak : bool;
  stream : bool;
}

let default_groups =
  {
    matrix = true;
    kill_resume = Some 0;
    shard = true;
    soak = false;
    stream = true;
  }

let select ~kill_at ~shard_kill ~chaos_soak ~stream_chaos =
  if kill_at = None && not (shard_kill || chaos_soak || stream_chaos) then
    default_groups
  else
    {
      matrix = false;
      kill_resume = kill_at;
      shard = shard_kill;
      soak = chaos_soak;
      stream = stream_chaos;
    }

let run ?emit ~json ~target ~seed ~run_dir ~domains ~soak_rounds groups =
  match Vega_target.Registry.find target with
  | None -> Error (Printf.sprintf "unknown target %s" target)
  | Some profile ->
      let sink = Sink.create ?emit ~json () in
      if not json then
        Sink.line sink
          (Printf.sprintf "faultcheck: target %s, seed %d" target seed);
      let cx = Ctx.create sink ~target ~profile ~seed ~run_dir ~domains in
      if groups.matrix then Matrix.run cx;
      Option.iter
        (fun kill_at -> Kill_resume.run cx ~kill_at)
        groups.kill_resume;
      if groups.shard then Shards.run cx;
      if groups.soak then Soak.run cx ~rounds:soak_rounds;
      if groups.stream then Streaming.run cx;
      let n = Sink.violations sink in
      if json then
        Sink.jline sink
          [
            ("event", Sink.json_str "summary");
            ("violations", string_of_int n);
            ("ok", if n = 0 then "true" else "false");
          ]
      else if n = 0 then
        Sink.line sink "faultcheck: OK — zero invariant violations"
      else
        Sink.line sink
          (Printf.sprintf "faultcheck: %d invariant violation(s)" n);
      Ok n
