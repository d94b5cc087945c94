type t =
  | Decoder_failure of { fname : string; stage : string; message : string }
  | Nan_score of { fname : string; detail : string }
  | Corpus_corruption of { group : string; detail : string }
  | Descfile_corruption of { path : string; detail : string }
  | Interp_fuel_exhausted of { fuel : int }
  | Sim_fuel_exhausted of { fuel : int }
  | Sim_trap of { message : string }
  | Bounds_error of { what : string; index : int; length : int }
  | Stage_failure of { stage : string; message : string }
  | Deadline_exceeded of { fname : string; budget_ms : int }
  | Breaker_open of { fname : string; failures : int }
  | Record_oversize of { where : string; bytes : int; limit : int }
  | Cache_corruption of { key : string; detail : string }
  | Shard_failure of { shard : string; detail : string }
  | Shard_stalled of { shard : string; decisions : int }
  | Shard_flapping of { shard : string; crashes : int; window : int }
  | Probe_loss of { shard : string; detail : string }
  | Tensor_fault of { op : string; detail : string }
  | Cancelled of { fname : string; at_stmt : int }
  | Peer_gone of { where : string }

exception Fault of t

type cls =
  | Cdecoder
  | Cscore
  | Ccorpus
  | Cdescfile
  | Cinterp_fuel
  | Csim_fuel
  | Csim_trap
  | Cbounds
  | Cstage
  | Cdeadline
  | Cbreaker
  | Coversize
  | Ccache
  | Cshard
  | Cstall
  | Cflap
  | Cprobe
  | Ccancel
  | Cpeer

let all_classes =
  [
    Cdecoder;
    Cscore;
    Ccorpus;
    Cdescfile;
    Cinterp_fuel;
    Csim_fuel;
    Csim_trap;
    Cbounds;
    Cstage;
    Cdeadline;
    Cbreaker;
    Coversize;
    Ccache;
    Cshard;
    Cstall;
    Cflap;
    Cprobe;
    Ccancel;
    Cpeer;
  ]

let cls_of = function
  | Decoder_failure _ -> Cdecoder
  | Nan_score _ -> Cscore
  | Corpus_corruption _ -> Ccorpus
  | Descfile_corruption _ -> Cdescfile
  | Interp_fuel_exhausted _ -> Cinterp_fuel
  | Sim_fuel_exhausted _ -> Csim_fuel
  | Sim_trap _ -> Csim_trap
  | Bounds_error _ -> Cbounds
  | Stage_failure _ -> Cstage
  | Deadline_exceeded _ -> Cdeadline
  | Breaker_open _ -> Cbreaker
  | Record_oversize _ -> Coversize
  | Cache_corruption _ -> Ccache
  | Shard_failure _ -> Cshard
  | Shard_stalled _ -> Cstall
  | Shard_flapping _ -> Cflap
  | Probe_loss _ -> Cprobe
  | Tensor_fault _ -> Cdecoder
  | Cancelled _ -> Ccancel
  | Peer_gone _ -> Cpeer

let cls_name = function
  | Cdecoder -> "decoder-failure"
  | Cscore -> "nan-score"
  | Ccorpus -> "corpus-corruption"
  | Cdescfile -> "descfile-corruption"
  | Cinterp_fuel -> "interp-fuel"
  | Csim_fuel -> "sim-fuel"
  | Csim_trap -> "sim-trap"
  | Cbounds -> "bounds"
  | Cstage -> "stage-failure"
  | Cdeadline -> "deadline"
  | Cbreaker -> "breaker-open"
  | Coversize -> "record-oversize"
  | Ccache -> "cache-corruption"
  | Cshard -> "shard-failure"
  | Cstall -> "shard-stalled"
  | Cflap -> "shard-flapping"
  | Cprobe -> "probe-loss"
  | Ccancel -> "cancelled"
  | Cpeer -> "peer-gone"

let to_string = function
  | Decoder_failure { fname; stage; message } ->
      Printf.sprintf "decoder-failure[%s/%s]: %s" fname stage message
  | Nan_score { fname; detail } -> Printf.sprintf "nan-score[%s]: %s" fname detail
  | Corpus_corruption { group; detail } ->
      Printf.sprintf "corpus-corruption[%s]: %s" group detail
  | Descfile_corruption { path; detail } ->
      Printf.sprintf "descfile-corruption[%s]: %s" path detail
  | Interp_fuel_exhausted { fuel } ->
      Printf.sprintf "interp-fuel: exhausted budget of %d steps" fuel
  | Sim_fuel_exhausted { fuel } ->
      Printf.sprintf "sim-fuel: exhausted budget of %d retired instructions" fuel
  | Sim_trap { message } -> Printf.sprintf "sim-trap: %s" message
  | Bounds_error { what; index; length } ->
      Printf.sprintf "bounds[%s]: index %d outside 0..%d" what index (length - 1)
  | Stage_failure { stage; message } ->
      Printf.sprintf "stage-failure[%s]: %s" stage message
  | Deadline_exceeded { fname; budget_ms } ->
      Printf.sprintf "deadline[%s]: %d ms function budget exhausted" fname
        budget_ms
  | Breaker_open { fname; failures } ->
      Printf.sprintf
        "breaker-open[%s]: decoder circuit open after %d consecutive failures"
        fname failures
  | Record_oversize { where; bytes; limit } ->
      Printf.sprintf "record-oversize[%s]: %d-byte record exceeds the %d-byte \
                      limit" where bytes limit
  | Cache_corruption { key; detail } ->
      Printf.sprintf "cache-corruption[%s]: %s" key detail
  | Shard_failure { shard; detail } ->
      Printf.sprintf "shard-failure[%s]: %s" shard detail
  | Shard_stalled { shard; decisions } ->
      Printf.sprintf "shard-stalled[%s]: no reply for %d router decisions"
        shard decisions
  | Shard_flapping { shard; crashes; window } ->
      Printf.sprintf
        "shard-flapping[%s]: %d crashes inside a %d-decision window" shard
        crashes window
  | Probe_loss { shard; detail } ->
      Printf.sprintf "probe-loss[%s]: %s" shard detail
  | Tensor_fault { op; detail } ->
      Printf.sprintf "tensor-fault[%s]: %s" op detail
  | Cancelled { fname; at_stmt } ->
      Printf.sprintf "cancelled[%s]: decode aborted at statement boundary %d"
        fname at_stmt
  | Peer_gone { where } ->
      Printf.sprintf "peer-gone[%s]: connection reset or half-closed mid-frame"
        where

(* Wire representation: constructor tag followed by its payload fields,
   consumed by the journal. *)
let to_fields = function
  | Decoder_failure { fname; stage; message } ->
      [ "decoder-failure"; fname; stage; message ]
  | Nan_score { fname; detail } -> [ "nan-score"; fname; detail ]
  | Corpus_corruption { group; detail } -> [ "corpus-corruption"; group; detail ]
  | Descfile_corruption { path; detail } ->
      [ "descfile-corruption"; path; detail ]
  | Interp_fuel_exhausted { fuel } -> [ "interp-fuel"; string_of_int fuel ]
  | Sim_fuel_exhausted { fuel } -> [ "sim-fuel"; string_of_int fuel ]
  | Sim_trap { message } -> [ "sim-trap"; message ]
  | Bounds_error { what; index; length } ->
      [ "bounds"; what; string_of_int index; string_of_int length ]
  | Stage_failure { stage; message } -> [ "stage-failure"; stage; message ]
  | Deadline_exceeded { fname; budget_ms } ->
      [ "deadline"; fname; string_of_int budget_ms ]
  | Breaker_open { fname; failures } ->
      [ "breaker-open"; fname; string_of_int failures ]
  | Record_oversize { where; bytes; limit } ->
      [ "record-oversize"; where; string_of_int bytes; string_of_int limit ]
  | Cache_corruption { key; detail } -> [ "cache-corruption"; key; detail ]
  | Shard_failure { shard; detail } -> [ "shard-failure"; shard; detail ]
  | Shard_stalled { shard; decisions } ->
      [ "shard-stalled"; shard; string_of_int decisions ]
  | Shard_flapping { shard; crashes; window } ->
      [ "shard-flapping"; shard; string_of_int crashes; string_of_int window ]
  | Probe_loss { shard; detail } -> [ "probe-loss"; shard; detail ]
  | Tensor_fault { op; detail } -> [ "tensor-fault"; op; detail ]
  | Cancelled { fname; at_stmt } -> [ "cancelled"; fname; string_of_int at_stmt ]
  | Peer_gone { where } -> [ "peer-gone"; where ]

let of_fields = function
  | [ "decoder-failure"; fname; stage; message ] ->
      Some (Decoder_failure { fname; stage; message })
  | [ "nan-score"; fname; detail ] -> Some (Nan_score { fname; detail })
  | [ "corpus-corruption"; group; detail ] ->
      Some (Corpus_corruption { group; detail })
  | [ "descfile-corruption"; path; detail ] ->
      Some (Descfile_corruption { path; detail })
  | [ "interp-fuel"; fuel ] ->
      Option.map (fun fuel -> Interp_fuel_exhausted { fuel }) (int_of_string_opt fuel)
  | [ "sim-fuel"; fuel ] ->
      Option.map (fun fuel -> Sim_fuel_exhausted { fuel }) (int_of_string_opt fuel)
  | [ "sim-trap"; message ] -> Some (Sim_trap { message })
  | [ "bounds"; what; index; length ] -> (
      match (int_of_string_opt index, int_of_string_opt length) with
      | Some index, Some length -> Some (Bounds_error { what; index; length })
      | _ -> None)
  | [ "stage-failure"; stage; message ] -> Some (Stage_failure { stage; message })
  | [ "deadline"; fname; budget ] ->
      Option.map
        (fun budget_ms -> Deadline_exceeded { fname; budget_ms })
        (int_of_string_opt budget)
  | [ "breaker-open"; fname; failures ] ->
      Option.map
        (fun failures -> Breaker_open { fname; failures })
        (int_of_string_opt failures)
  | [ "record-oversize"; where; bytes; limit ] -> (
      match (int_of_string_opt bytes, int_of_string_opt limit) with
      | Some bytes, Some limit -> Some (Record_oversize { where; bytes; limit })
      | _ -> None)
  | [ "cache-corruption"; key; detail ] -> Some (Cache_corruption { key; detail })
  | [ "shard-failure"; shard; detail ] -> Some (Shard_failure { shard; detail })
  | [ "shard-stalled"; shard; decisions ] ->
      Option.map
        (fun decisions -> Shard_stalled { shard; decisions })
        (int_of_string_opt decisions)
  | [ "shard-flapping"; shard; crashes; window ] -> (
      match (int_of_string_opt crashes, int_of_string_opt window) with
      | Some crashes, Some window ->
          Some (Shard_flapping { shard; crashes; window })
      | _ -> None)
  | [ "probe-loss"; shard; detail ] -> Some (Probe_loss { shard; detail })
  | [ "tensor-fault"; op; detail ] -> Some (Tensor_fault { op; detail })
  | [ "cancelled"; fname; at_stmt ] ->
      Option.map
        (fun at_stmt -> Cancelled { fname; at_stmt })
        (int_of_string_opt at_stmt)
  | [ "peer-gone"; where ] -> Some (Peer_gone { where })
  | _ -> None

let nth ~what l i =
  let length = List.length l in
  if i < 0 || i >= length then
    raise (Fault (Bounds_error { what; index = i; length }))
  else List.nth l i
