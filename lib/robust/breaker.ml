type state = Closed of int | Open of int | Half_open
type verdict = Skip | Call | Probe

let initial = Closed 0

let admit = function
  | Open k when k > 1 -> (Skip, Open (k - 1))
  | Open _ | Half_open -> (Probe, Half_open)
  | Closed _ as s -> (Call, s)

let success (_ : state) = initial

let failure ~threshold ~cooldown ~counted = function
  | Half_open -> Open cooldown
  | Closed k when counted ->
      if k + 1 >= threshold then Open cooldown else Closed (k + 1)
  | Closed _ -> initial
  | Open _ as s -> s

let tripped ~before after =
  match (before, after) with
  | (Closed _ | Half_open), Open _ -> true
  | _ -> false

let closed = function Closed _ -> true | Open _ | Half_open -> false

let name = function
  | Closed _ -> "closed"
  | Open _ -> "open"
  | Half_open -> "half-open"

let backoff ~base ~max rng attempt =
  let raw = base *. (2.0 ** float_of_int attempt) in
  let capped = Float.min max raw in
  let jitter = 0.75 +. Vega_util.Rng.float rng 0.5 in
  Float.min max (capped *. jitter)
