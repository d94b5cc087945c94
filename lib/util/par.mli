(** Fixed-size domain pool (OCaml 5) with deterministic result order.

    [map ~domains f items] applies [f] to every item across at most
    [domains] domains (one of which is the calling domain) and returns
    the results in input order, independent of scheduling. If any
    application raises, the exception of the lowest-indexed failing item
    is re-raised in the caller after all workers have stopped; items not
    yet started when the failure was recorded are skipped.

    [f] must be safe to run concurrently with itself: shared state it
    touches must be immutable, domain-local, or lock-protected. *)

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list

val map_ctx : domains:int -> ctx:(int -> 'c) -> ('c -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!map} but each worker first builds a private context with
    [ctx w] ([w] is the worker index, [0] = calling domain) that is
    passed to every application that worker runs — e.g. a forked
    supervisor that must not be shared across domains. *)

(** Persistent {!map} for callers that map many small batches (an event
    loop's tick), where spawning domains per batch would cost more than
    the work. *)
module Gang : sig
  type t

  val create : domains:int -> t
  (** A gang of [domains] workers: the caller of {!map} and
      [domains - 1] long-lived domains, spawned with the first batch of
      two or more items. *)

  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  (** Like {!map}: results in input order, the lowest-indexed failure
      re-raised once every item has run. A batch of fewer than two items
      runs inline. One caller at a time. *)

  val stop : t -> unit
  (** Join the gang's domains. Call it between batches. *)
end
