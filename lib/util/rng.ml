type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }
let index_seed seed i = seed lxor (i * 0x9E3779B9)

let golden = 0x9E3779B97F4A7C15L

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 *. bound

let gaussian t =
  let rec u () =
    let x = float t 1.0 in
    if x <= 1e-12 then u () else x
  in
  let u1 = u () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
