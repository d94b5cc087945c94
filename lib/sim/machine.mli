(** ISA simulator executing an emitted program (our QEMU / PULP-RTL / XSIM
    stand-in, Sec. 4.1.5).

    Functional semantics come from the instruction table; the cycle model
    is driven by the SCH hooks (latencies, issue width, micro-ops, load
    latency, mispredict penalty), with hardware loops running their
    back-edge for free and SIMD ops retiring whole 4-word lanes — which is
    what gives -O3 its Fig. 10 shape. *)

type status =
  | Finished of int option
  | Trap of string
  | Timeout of int
      (** the retired-instruction fuel budget (the payload) ran out —
          distinct from [Trap] so harnesses classify timeouts apart from
          wrong-code errors *)
  | Hook_timeout of int
      (** a cycle-model hook exhausted its interpreter fuel (the
          payload): a timeout too, but not of the simulator's budget *)

type result = {
  output : int list;  (** print stream; must match the VIR golden run *)
  cycles : int;
  retired : int;  (** dynamic instruction count *)
  status : status;
}

val run :
  ?fuel:int ->
  ?mem_words:int ->
  Vega_backend.Conv.t ->
  Vega_backend.Emitter.t ->
  entry:string ->
  args:int list ->
  result
(** Fuel defaults to 4_000_000 retired instructions. *)
