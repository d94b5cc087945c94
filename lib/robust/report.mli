(** Run report: every fault a run observed and every statement that was
    generated at a degraded rung. The fault-injection invariants check
    against this record — each injected fault must appear here.

    Recording, degradation recording and subscription are mutex-guarded:
    one report may be shared by parallel generation domains. The lock is
    held across subscriber notification, so subscribers see events in
    one serialized order (and must not call back into this report). *)

type event = {
  ev_stage : string;
  ev_fault : Fault.t;
  ev_backtrace : string;
      (** raw backtrace captured where the original exception was
          wrapped into the fault; [""] when backtraces are off *)
}

type degradation = {
  d_fname : string;
  d_col : int;
  d_line : int;
  d_inst : int;
  d_level : Degrade.level;
}

type t

val create : unit -> t

val record : ?backtrace:string -> t -> stage:string -> Fault.t -> unit

val subscribe : t -> (event -> unit) -> unit -> unit
(** [subscribe r f] calls [f] on every subsequently recorded event (the
    journal uses this to write fault records ahead). Returns a canceller;
    call it before the sink goes away. *)

val record_degradation :
  t -> fname:string -> col:int -> line:int -> inst:int -> Degrade.level -> unit
(** No-op for {!Degrade.Primary}. *)

val events : t -> event list
(** In observation order. *)

val faults : t -> Fault.t list
val total : t -> int
val count_class : t -> Fault.cls -> int
val by_class : t -> (Fault.cls * int) list
(** Only classes with a non-zero count. *)

val degradations : t -> degradation list
val degraded_count : t -> int
val count_level : t -> Degrade.level -> int
val by_level : t -> (Degrade.level * int) list

val summary : t -> string
