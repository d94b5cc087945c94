module I = Vega_mc.Mcinst

let latency conv (inst : I.inst) =
  Hooks.call_int conv.Conv.hooks "getInstrLatency" [ Hooks.vint inst.I.opcode ]

let sem_of conv (inst : I.inst) =
  Option.map (fun i -> i.Insntab.sem) (Insntab.by_opcode conv.Conv.tab inst.I.opcode)

(* Instructions pinned to block boundaries: control flow and loop markers
   stay put; everything between is schedulable. *)
let is_pinned conv inst =
  match sem_of conv inst with
  | Some
      ( Insntab.Sbranch _ | Insntab.Sjump | Insntab.Scall | Insntab.Sret
      | Insntab.Slpsetup | Insntab.Slpend ) ->
      true
  | Some _ | None -> false

let is_mem conv inst =
  match sem_of conv inst with
  | Some (Insntab.Sload | Insntab.Sstore | Insntab.Svadd | Insntab.Svmul) -> true
  | Some _ | None -> false

let schedule_block conv (b : I.mblock) =
  (* split into maximal schedulable regions between pinned instructions *)
  let insts = Array.of_list b.I.minsts in
  let n = Array.length insts in
  let out = ref [] in
  let hooks = conv.Conv.hooks in
  let fuse_enabled = Hooks.has hooks "shouldScheduleAdjacent" in
  let high_latency_enabled = Hooks.has hooks "isHighLatencyDef" in
  let region lo hi =
    (* schedule insts[lo, hi) *)
    let m = hi - lo in
    if m <= 1 then
      for k = lo to hi - 1 do
        out := insts.(k) :: !out
      done
    else begin
      let du = Array.init m (fun a -> Regalloc.def_use conv.Conv.tab insts.(lo + a)) in
      let mem = Array.init m (fun a -> is_mem conv insts.(lo + a)) in
      (* data deps: def -> later use/def of same register; memory ordered.
         Each edge a -> b (a < b) is stored once, as a successor of a:
         succ.(succ_start.(a) .. succ_start.(a + 1) - 1), ascending. *)
      let succ_start = Array.make (m + 1) 0 in
      let succ = ref (Array.make (2 * m) 0) and n_edges = ref 0 in
      let indeg = Array.make m 0 in
      let overlap l1 l2 = List.exists (fun r -> List.mem r l2) l1 in
      for a = 0 to m - 1 do
        succ_start.(a) <- !n_edges;
        let da, ua = du.(a) in
        for b' = a + 1 to m - 1 do
          let db, ub = du.(b') in
          if
            overlap da ub (* RAW *) || overlap da db (* WAW *)
            || overlap ua db (* WAR *)
            || (mem.(a) && mem.(b'))
          then begin
            if !n_edges = Array.length !succ then begin
              let grown = Array.make (2 * !n_edges) 0 in
              Array.blit !succ 0 grown 0 !n_edges;
              succ := grown
            end;
            !succ.(!n_edges) <- b';
            incr n_edges;
            indeg.(b') <- indeg.(b') + 1
          end
        done
      done;
      succ_start.(m) <- !n_edges;
      let succ = !succ in
      (* fusion pairs: keep adjacent when the hook asks for it *)
      let fused_with = Array.make m (-1) in
      if fuse_enabled then
        for a = 0 to m - 2 do
          let ia = insts.(lo + a) and ib = insts.(lo + a + 1) in
          if
            Hooks.call_bool hooks "shouldScheduleAdjacent"
              [ Hooks.vint ia.I.opcode; Hooks.vint ib.I.opcode ]
          then fused_with.(a) <- a + 1
        done;
      (* critical-path priority, boosted for high-latency defs; per
         instruction, isHighLatencyDef is asked before getInstrLatency *)
      let prio = Array.make m 0 in
      for a = m - 1 downto 0 do
        let inst = insts.(lo + a) in
        let boost =
          if
            high_latency_enabled
            && Hooks.call_bool hooks "isHighLatencyDef" [ Hooks.vint inst.I.opcode ]
          then 2
          else 0
        in
        let lat = latency conv inst + boost in
        prio.(a) <- lat;
        for e = succ_start.(a) to succ_start.(a + 1) - 1 do
          prio.(a) <- max prio.(a) (lat + prio.(succ.(e)))
        done
      done;
      (* greedy list scheduling: highest priority ready instruction, lowest
         index on ties. Edges only point forward, so the lowest unemitted
         index is always ready and every pick succeeds. *)
      let emitted = Array.make m false in
      let remaining = ref m in
      let emit_one a =
        emitted.(a) <- true;
        decr remaining;
        out := insts.(lo + a) :: !out;
        for e = succ_start.(a) to succ_start.(a + 1) - 1 do
          indeg.(succ.(e)) <- indeg.(succ.(e)) - 1
        done
      in
      while !remaining > 0 do
        let best = ref (-1) in
        for a = 0 to m - 1 do
          if (not emitted.(a)) && indeg.(a) = 0 then
            if !best = -1 || prio.(a) > prio.(!best) then best := a
        done;
        let a = !best in
        emit_one a;
        (* pull the fusion partner right behind, if ready *)
        let p = fused_with.(a) in
        if p >= 0 && (not emitted.(p)) && indeg.(p) = 0 then emit_one p
      done
    end
  in
  let lo = ref 0 in
  for k = 0 to n - 1 do
    if is_pinned conv insts.(k) then begin
      region !lo k;
      out := insts.(k) :: !out;
      lo := k + 1
    end
  done;
  region !lo n;
  b.I.minsts <- List.rev !out

let run conv mf = List.iter (schedule_block conv) mf.I.mblocks

let run_post_ra conv mf =
  if
    Hooks.has conv.Conv.hooks "enablePostRAScheduler"
    && Hooks.call_bool conv.Conv.hooks "enablePostRAScheduler" []
  then run conv mf
