type event = { ev_stage : string; ev_fault : Fault.t; ev_backtrace : string }

type degradation = {
  d_fname : string;
  d_col : int;
  d_line : int;
  d_inst : int;
  d_level : Degrade.level;
}

type t = {
  mutable events : event list;  (* newest first *)
  mutable degradations : degradation list;
  mutable subscribers : (int * (event -> unit)) list;
  mutable next_sub : int;
  lock : Mutex.t;
      (* guards all four fields so recording is safe from parallel
         generation domains; held across subscriber notification, which
         also serializes journal fault records behind one event order *)
}

let create () =
  {
    events = [];
    degradations = [];
    subscribers = [];
    next_sub = 0;
    lock = Mutex.create ();
  }

let record ?(backtrace = "") r ~stage fault =
  let ev = { ev_stage = stage; ev_fault = fault; ev_backtrace = backtrace } in
  Mutex.protect r.lock (fun () ->
      r.events <- ev :: r.events;
      List.iter (fun (_, f) -> f ev) r.subscribers)

let subscribe r f =
  Mutex.protect r.lock (fun () ->
      let id = r.next_sub in
      r.next_sub <- id + 1;
      r.subscribers <- (id, f) :: r.subscribers;
      fun () ->
        Mutex.protect r.lock (fun () ->
            r.subscribers <- List.filter (fun (i, _) -> i <> id) r.subscribers))

let record_degradation r ~fname ~col ~line ~inst level =
  if level <> Degrade.Primary then
    Mutex.protect r.lock (fun () ->
        r.degradations <-
          { d_fname = fname; d_col = col; d_line = line; d_inst = inst; d_level = level }
          :: r.degradations)

let events r = List.rev r.events
let faults r = List.rev_map (fun e -> e.ev_fault) r.events
let total r = List.length r.events

let count_class r c =
  List.length (List.filter (fun e -> Fault.cls_of e.ev_fault = c) r.events)

let by_class r =
  List.filter_map
    (fun c ->
      match count_class r c with 0 -> None | n -> Some (c, n))
    Fault.all_classes

let degradations r = List.rev r.degradations
let degraded_count r = List.length r.degradations

let count_level r l =
  List.length (List.filter (fun d -> d.d_level = l) r.degradations)

let by_level r =
  List.filter_map
    (fun l ->
      match count_level r l with 0 -> None | n -> Some (l, n))
    Degrade.all

let summary r =
  let fault_part =
    match by_class r with
    | [] -> "no faults"
    | counts ->
        String.concat ", "
          (List.map
             (fun (c, n) -> Printf.sprintf "%s:%d" (Fault.cls_name c) n)
             counts)
  in
  let degr_part =
    match by_level r with
    | [] -> "no degraded statements"
    | counts ->
        String.concat ", "
          (List.map
             (fun (l, n) -> Printf.sprintf "%s:%d" (Degrade.name l) n)
             counts)
  in
  Printf.sprintf "faults: %s; degradation: %s" fault_part degr_part
