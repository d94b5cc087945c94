let table ~eq xs ys =
  let n = Array.length xs and m = Array.length ys in
  let t = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      t.(i).(j) <-
        (if eq xs.(i) ys.(j) then 1 + t.(i + 1).(j + 1)
         else max t.(i + 1).(j) t.(i).(j + 1))
    done
  done;
  t

let lcs ~eq xs ys =
  let t = table ~eq xs ys in
  let n = Array.length xs and m = Array.length ys in
  let rec walk i j acc =
    if i >= n || j >= m then List.rev acc
    else if eq xs.(i) ys.(j) then walk (i + 1) (j + 1) ((i, j) :: acc)
    else if t.(i + 1).(j) >= t.(i).(j + 1) then walk (i + 1) j acc
    else walk i (j + 1) acc
  in
  walk 0 0 []

let lcs_length ~eq xs ys =
  (* One-dimensional rolling variant: O(m) space. *)
  let n = Array.length xs and m = Array.length ys in
  let prev = Array.make (m + 1) 0 and cur = Array.make (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      cur.(j) <-
        (if eq xs.(i) ys.(j) then 1 + prev.(j + 1) else max prev.(j) cur.(j + 1))
    done;
    Array.blit cur 0 prev 0 (m + 1)
  done;
  prev.(0)

let similarity ~eq xs ys =
  let n = Array.length xs and m = Array.length ys in
  if n = 0 && m = 0 then 1.0
  else 2.0 *. float_of_int (lcs_length ~eq xs ys) /. float_of_int (n + m)
