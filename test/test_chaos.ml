(* The faultcheck suite (vega.chaos) under the test runner: the flag
   selection, then one case per scenario group on RISC-V at seed 13.
   A case fails with the group's violation lines. *)

module C = Vega_chaos.Faultcheck

let groups =
  Alcotest.testable
    (fun ppf (g : C.groups) ->
      Format.fprintf ppf
        "{matrix=%b; kill_resume=%s; shard=%b; soak=%b; stream=%b}" g.C.matrix
        (match g.C.kill_resume with
        | None -> "none"
        | Some k -> string_of_int k)
        g.C.shard g.C.soak g.C.stream)
    ( = )

let none =
  {
    C.matrix = false;
    kill_resume = None;
    shard = false;
    soak = false;
    stream = false;
  }

(* Each flag adds its group; several run the union; none runs the
   default set. The three pairs once selected nothing (or dropped a
   group) and still reported OK. *)
let test_select () =
  let sel ?kill_at ?(shard_kill = false) ?(chaos_soak = false)
      ?(stream_chaos = false) () =
    C.select ~kill_at ~shard_kill ~chaos_soak ~stream_chaos
  in
  Alcotest.check groups "no flag: the default set" C.default_groups (sel ());
  Alcotest.check groups "default: matrix, kill-resume sweep, shard, stream"
    {
      none with
      C.matrix = true;
      kill_resume = Some 0;
      shard = true;
      stream = true;
    }
    C.default_groups;
  Alcotest.check groups "--kill-at 0 alone"
    { none with C.kill_resume = Some 0 }
    (sel ~kill_at:0 ());
  Alcotest.check groups "--stream-chaos alone" { none with C.stream = true }
    (sel ~stream_chaos:true ());
  Alcotest.check groups "--chaos-soak --kill-at 3"
    { none with C.kill_resume = Some 3; soak = true }
    (sel ~chaos_soak:true ~kill_at:3 ());
  Alcotest.check groups "--shard-kill --kill-at 3"
    { none with C.kill_resume = Some 3; shard = true }
    (sel ~shard_kill:true ~kill_at:3 ());
  Alcotest.check groups "--shard-kill --chaos-soak"
    { none with C.shard = true; soak = true }
    (sel ~shard_kill:true ~chaos_soak:true ())

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "vega_chaos_%d_%s%d" (Unix.getpid ()) name !n)
    in
    if not (Sys.file_exists d) then Unix.mkdir d 0o755;
    d

let run_group name ?(domains = 1) g () =
  let out = Buffer.create 4096 in
  match
    C.run ~emit:(Buffer.add_string out) ~json:false ~target:"RISCV" ~seed:13
      ~run_dir:(fresh_dir name) ~domains ~soak_rounds:3 g
  with
  | Error e -> Alcotest.fail e
  | Ok 0 -> ()
  | Ok n ->
      let lines = String.split_on_char '\n' (Buffer.contents out) in
      Alcotest.failf "%s: %d violation(s)\n%s" name n
        (String.concat "\n"
           (List.filter
              (fun l -> Vega_util.Strutil.contains_sub ~sub:"VIOLATION" l)
              lines))

let suite =
  [
    Alcotest.test_case "flag selection" `Quick test_select;
    Alcotest.test_case "matrix (2 domains)" `Slow
      (run_group "matrix" ~domains:2 { none with C.matrix = true });
    Alcotest.test_case "kill-resume sweep (2 domains)" `Slow
      (run_group "kill" ~domains:2 { none with C.kill_resume = Some 0 });
    Alcotest.test_case "shard cache and storm-kill" `Slow
      (run_group "shard" { none with C.shard = true });
    Alcotest.test_case "chaos soak (3 rounds)" `Slow
      (run_group "soak" { none with C.soak = true });
    Alcotest.test_case "stream chaos" `Slow
      (run_group "stream" { none with C.stream = true });
  ]
