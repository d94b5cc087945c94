(* Request/reply protocol of the serving layer.

   One request asks for one interface function of one target; one reply
   carries the generated source or a typed rejection. Everything
   round-trips through the checksummed wire format (Vega_robust.Wire),
   so the newline-delimited socket transport and the journal share one
   framing: a torn or oversize line is detected, never mis-parsed. *)

module Wire = Vega_robust.Wire

(* Protocol version. Every command and reply line leads with a [vN]
   field; a peer speaking a different version gets a typed
   [Version_mismatch] rejection instead of a parse fault, so rolling a
   mixed-version shard fleet degrades loudly rather than corrupting. *)
let version = 1

let version_to_field v = "v" ^ string_of_int v

let version_of_field s =
  if String.length s >= 2 && s.[0] = 'v' then
    int_of_string_opt (String.sub s 1 (String.length s - 1))
  else None

(* Three-way decode result: a line can be well-formed for a different
   protocol version — that is not malformed, it is a skewed peer. *)
type 'a decoded = Decoded of 'a | Version_skew of { got : int } | Malformed

type request = {
  rq_client : string;  (* rate-limit identity *)
  rq_target : string;
  rq_fname : string;  (* interface function to generate *)
  rq_deadline_ms : int option;  (* per-request budget override *)
}

type reject_reason =
  | Queue_full of { depth : int; cap : int }
  | Budget_exhausted of { client : string }
  | Draining
  | Expired of { waited_ms : int }
      (* deadline elapsed while the request sat in the queue *)
  | Oversize of { bytes : int; limit : int }
  | Bad_request of string
  | Version_mismatch of { got : int; want : int }
      (* peer speaks protocol version [got], we speak [want] *)
  | Shard_down of { shard : string }
      (* the shard owning this key is dead and policy says shed *)
  | Shard_quarantined of { shard : string; crashes : int }
      (* the shard owning this key crash-looped past the flap budget and
         the fleet quarantined it instead of respawning again *)
  | Cancelled of { at_stmt : int }
      (* the client cancelled (frame or disconnect) and the decode was
         aborted at statement boundary [at_stmt] *)
  | Slow_reader of { buffered : int; limit : int }
      (* backpressure shed: the peer stopped reading and its write
         buffer stayed full past the deadline *)
  | Idle_timeout of { ticks : int }
      (* slow-loris shed: the connection produced no complete request
         line within [ticks] event-loop ticks *)

type reply =
  | Done of {
      r_fname : string;
      r_target : string;
      r_confidence : float;
      r_degraded : int;  (* statements produced below the Primary rung *)
      r_resumed : bool;  (* restored from the journal, not regenerated *)
      r_source : string;
    }
  | Rejected of reject_reason
  | Failed of string

(* Commands a socket connection may open with; in-process callers use
   the Server API directly and never see these. [Cshards] asks a router
   for per-shard status; a plain single-process server rejects it.
   [Cstream] answers with a framed stream (one [Fstmt] per statement as
   it decodes, then one [Ffinal]); [Ccancel] is the only frame a client
   may send after opening a stream — it aborts the decode at the next
   statement boundary. *)
type command =
  | Creq of request
  | Cstream of request
  | Ccancel
  | Chealth
  | Cdrain
  | Cping
  | Cshards

(* Frames of a streaming reply. [f_index] is the statement's position
   in stream order, so a client (and the faultcheck harness) can assert
   frames-in-order and detect a dropped frame; [f_level] is the
   degradation-ladder rung name and [f_score] the Eq. (1) confidence —
   together the live Err-PS review channel. The terminal [Ffinal]
   carries the same typed verdict a non-streaming request gets. *)
type frame =
  | Fstmt of {
      f_index : int;
      f_level : string;  (* Degrade.name of the rung *)
      f_score : float;
      f_shape_ok : bool;
      f_tokens : string list;
    }
  | Ffinal of reply

let reject_label = function
  | Queue_full _ -> "queue-full"
  | Budget_exhausted _ -> "budget-exhausted"
  | Draining -> "draining"
  | Expired _ -> "expired"
  | Oversize _ -> "oversize"
  | Bad_request _ -> "bad-request"
  | Version_mismatch _ -> "version-mismatch"
  | Shard_down _ -> "shard-down"
  | Shard_quarantined _ -> "shard-quarantined"
  | Cancelled _ -> "cancelled"
  | Slow_reader _ -> "slow-reader"
  | Idle_timeout _ -> "idle-timeout"

let reject_to_string = function
  | Queue_full { depth; cap } ->
      Printf.sprintf "queue full (depth %d, cap %d)" depth cap
  | Budget_exhausted { client } ->
      Printf.sprintf "retry budget exhausted for client %S" client
  | Draining -> "server draining; not admitting requests"
  | Expired { waited_ms } ->
      Printf.sprintf "deadline expired after %d ms in queue" waited_ms
  | Oversize { bytes; limit } ->
      Printf.sprintf "request line oversize (%d bytes, limit %d)" bytes limit
  | Bad_request msg -> Printf.sprintf "bad request: %s" msg
  | Version_mismatch { got; want } ->
      Printf.sprintf "protocol version mismatch (peer v%d, server v%d)" got
        want
  | Shard_down { shard } ->
      Printf.sprintf "shard %s is down; request shed by the router" shard
  | Shard_quarantined { shard; crashes } ->
      Printf.sprintf
        "shard %s quarantined after %d crashes inside the flap window" shard
        crashes
  | Cancelled { at_stmt } ->
      Printf.sprintf "cancelled at statement boundary %d" at_stmt
  | Slow_reader { buffered; limit } ->
      Printf.sprintf
        "shed as slow reader (%d bytes buffered, limit %d)" buffered limit
  | Idle_timeout { ticks } ->
      Printf.sprintf "idle connection shed after %d loop ticks" ticks

(* ---- wire encoding ---- *)

let opt_int_to_field = function None -> "-" | Some n -> string_of_int n

let opt_int_of_field = function
  | "-" -> Some None
  | s -> Option.map Option.some (Wire.int_of_field s)

let request_fields r =
  [
    "req"; r.rq_client; r.rq_target; r.rq_fname;
    opt_int_to_field r.rq_deadline_ms;
  ]

let command_fields = function
  | Creq r -> request_fields r
  | Cstream r -> "stream" :: List.tl (request_fields r)
  | Ccancel -> [ "cancel" ]
  | Chealth -> [ "health" ]
  | Cdrain -> [ "drain" ]
  | Cping -> [ "ping" ]
  | Cshards -> [ "shards" ]

(* [encode_command_at] exists so tests (and future mixed-version
   tooling) can stamp a line with an arbitrary version. *)
let encode_command_at ~version:v c =
  Wire.encode_line (version_to_field v :: command_fields c)

let encode_command c = encode_command_at ~version c
let encode_request r = encode_command (Creq r)

let reject_fields = function
  | Queue_full { depth; cap } ->
      [ "queue-full"; string_of_int depth; string_of_int cap ]
  | Budget_exhausted { client } -> [ "budget-exhausted"; client ]
  | Draining -> [ "draining" ]
  | Expired { waited_ms } -> [ "expired"; string_of_int waited_ms ]
  | Oversize { bytes; limit } ->
      [ "oversize"; string_of_int bytes; string_of_int limit ]
  | Bad_request msg -> [ "bad-request"; msg ]
  | Version_mismatch { got; want } ->
      [ "version-mismatch"; string_of_int got; string_of_int want ]
  | Shard_down { shard } -> [ "shard-down"; shard ]
  | Shard_quarantined { shard; crashes } ->
      [ "shard-quarantined"; shard; string_of_int crashes ]
  | Cancelled { at_stmt } -> [ "cancelled"; string_of_int at_stmt ]
  | Slow_reader { buffered; limit } ->
      [ "slow-reader"; string_of_int buffered; string_of_int limit ]
  | Idle_timeout { ticks } -> [ "idle-timeout"; string_of_int ticks ]

let reject_of_fields = function
  | [ "queue-full"; depth; cap ] -> (
      match (Wire.int_of_field depth, Wire.int_of_field cap) with
      | Some depth, Some cap -> Some (Queue_full { depth; cap })
      | _ -> None)
  | [ "budget-exhausted"; client ] -> Some (Budget_exhausted { client })
  | [ "draining" ] -> Some Draining
  | [ "expired"; waited ] ->
      Option.map
        (fun waited_ms -> Expired { waited_ms })
        (Wire.int_of_field waited)
  | [ "oversize"; bytes; limit ] -> (
      match (Wire.int_of_field bytes, Wire.int_of_field limit) with
      | Some bytes, Some limit -> Some (Oversize { bytes; limit })
      | _ -> None)
  | [ "bad-request"; msg ] -> Some (Bad_request msg)
  | [ "version-mismatch"; got; want ] -> (
      match (Wire.int_of_field got, Wire.int_of_field want) with
      | Some got, Some want -> Some (Version_mismatch { got; want })
      | _ -> None)
  | [ "shard-down"; shard ] -> Some (Shard_down { shard })
  | [ "shard-quarantined"; shard; crashes ] ->
      Option.map
        (fun crashes -> Shard_quarantined { shard; crashes })
        (Wire.int_of_field crashes)
  | [ "cancelled"; at_stmt ] ->
      Option.map (fun at_stmt -> Cancelled { at_stmt }) (Wire.int_of_field at_stmt)
  | [ "slow-reader"; buffered; limit ] -> (
      match (Wire.int_of_field buffered, Wire.int_of_field limit) with
      | Some buffered, Some limit -> Some (Slow_reader { buffered; limit })
      | _ -> None)
  | [ "idle-timeout"; ticks ] ->
      Option.map (fun ticks -> Idle_timeout { ticks }) (Wire.int_of_field ticks)
  | _ -> None

let reply_fields = function
  | Done d ->
      [
        "done"; d.r_fname; d.r_target;
        Wire.float_to_field d.r_confidence;
        string_of_int d.r_degraded;
        Wire.bool_to_field d.r_resumed;
        d.r_source;
      ]
  | Rejected r -> "rej" :: reject_fields r
  | Failed msg -> [ "fail"; msg ]

let encode_reply_at ~version:v reply =
  Wire.encode_line (version_to_field v :: reply_fields reply)

let encode_reply reply = encode_reply_at ~version reply

(* Shared version gate: a checksum-valid line whose leading field names
   another version is [Version_skew], not [Malformed]. *)
let decode_versioned line parse =
  match Wire.decode_line line with
  | Some (vf :: rest) -> (
      match version_of_field vf with
      | None -> Malformed
      | Some got when got <> version -> Version_skew { got }
      | Some _ -> (
          match parse rest with Some x -> Decoded x | None -> Malformed))
  | Some [] | None -> Malformed

let command_of_fields = function
  | [ "req"; rq_client; rq_target; rq_fname; deadline ] ->
      Option.map
        (fun rq_deadline_ms ->
          Creq { rq_client; rq_target; rq_fname; rq_deadline_ms })
        (opt_int_of_field deadline)
  | [ "stream"; rq_client; rq_target; rq_fname; deadline ] ->
      Option.map
        (fun rq_deadline_ms ->
          Cstream { rq_client; rq_target; rq_fname; rq_deadline_ms })
        (opt_int_of_field deadline)
  | [ "cancel" ] -> Some Ccancel
  | [ "health" ] -> Some Chealth
  | [ "drain" ] -> Some Cdrain
  | [ "ping" ] -> Some Cping
  | [ "shards" ] -> Some Cshards
  | _ -> None

let decode_command line = decode_versioned line command_of_fields

let reply_of_fields = function
  | [ "done"; r_fname; r_target; conf; degraded; resumed; r_source ] -> (
      match
        ( Wire.float_of_field conf,
          Wire.int_of_field degraded,
          Wire.bool_of_field resumed )
      with
      | Some r_confidence, Some r_degraded, Some r_resumed ->
          Some
            (Done
               {
                 r_fname; r_target; r_confidence; r_degraded; r_resumed;
                 r_source;
               })
      | _ -> None)
  | "rej" :: fields -> Option.map (fun r -> Rejected r) (reject_of_fields fields)
  | [ "fail"; msg ] -> Some (Failed msg)
  | _ -> None

(* ---- streaming frames ----

   Statement tokens ride as trailing variadic fields (the journal's
   [Stmt] record uses the same shape), so a token containing the field
   separator is escaped by [Wire] rather than splitting the frame. *)

let frame_fields = function
  | Fstmt f ->
      "s" :: string_of_int f.f_index :: f.f_level
      :: Wire.float_to_field f.f_score
      :: Wire.bool_to_field f.f_shape_ok
      :: f.f_tokens
  | Ffinal reply -> "f" :: reply_fields reply

let encode_frame_at ~version:v frame =
  Wire.encode_line (version_to_field v :: frame_fields frame)

let encode_frame frame = encode_frame_at ~version frame

let frame_of_fields = function
  | "s" :: index :: level :: score :: shape_ok :: tokens -> (
      match
        ( Wire.int_of_field index,
          Wire.float_of_field score,
          Wire.bool_of_field shape_ok )
      with
      | Some f_index, Some f_score, Some f_shape_ok ->
          Some
            (Fstmt
               { f_index; f_level = level; f_score; f_shape_ok;
                 f_tokens = tokens })
      | _ -> None)
  | "f" :: fields -> Option.map (fun r -> Ffinal r) (reply_of_fields fields)
  | _ -> None

let decode_frame line = decode_versioned line frame_of_fields

let decode_reply line = decode_versioned line reply_of_fields
