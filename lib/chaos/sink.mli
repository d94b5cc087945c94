(** Where a fault-injection run reports: one line per scenario, failed
    invariant and note, as indented text or as JSON lines. *)

val json_str : string -> string
(** A JSON string literal, escaped by hand (no JSON library in the
    toolchain). *)

val json_obj : (string * string) list -> string
(** One JSON object on one line; values are already-encoded JSON. *)

type t

val create : ?emit:(string -> unit) -> json:bool -> unit -> t
(** [emit] receives whole lines, newline included; it defaults to
    stdout, flushed per line. *)

val violations : t -> int

val line : t -> string -> unit
(** A raw line, newline appended. *)

val jline : t -> (string * string) list -> unit

val scenario : t -> string -> unit
(** Announce a scenario: ["- name"] or a [scenario] record. *)

val check : t -> string -> bool -> unit
(** [check k name cond] is a violation named [name] unless [cond]. *)

val violation : t -> ('a, unit, string, unit) format4 -> 'a
(** Count and report a failed invariant: ["  VIOLATION: ..."] or a
    [violation] record. *)

val info : t -> ('a, unit, string, unit) format4 -> 'a
(** A note under the current scenario. *)
