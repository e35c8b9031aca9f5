type matrix = float array array

let make ~rows ~cols x =
  if rows < 0 || cols < 0 then invalid_arg "Linalg.make: negative dimension";
  Array.init rows (fun _ -> Array.make cols x)

let identity n =
  Array.init n (fun i -> Array.init n (fun j -> if i = j then 1. else 0.))

let copy m = Array.map Array.copy m

let dims m =
  let rows = Array.length m in
  if rows = 0 then (0, 0)
  else begin
    let cols = Array.length m.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> cols then invalid_arg "Linalg.dims: ragged matrix")
      m;
    (rows, cols)
  end

let transpose m =
  let rows, cols = dims m in
  Array.init cols (fun j -> Array.init rows (fun i -> m.(i).(j)))

let mat_vec m v =
  let rows, cols = dims m in
  if Array.length v <> cols then invalid_arg "Linalg.mat_vec: dimension mismatch";
  Array.init rows (fun i ->
      let acc = ref 0. in
      for j = 0 to cols - 1 do
        acc := !acc +. (m.(i).(j) *. v.(j))
      done;
      !acc)

let vec_mat v m =
  let rows, cols = dims m in
  if Array.length v <> rows then invalid_arg "Linalg.vec_mat: dimension mismatch";
  let out = Array.make cols 0. in
  for i = 0 to rows - 1 do
    let vi = v.(i) in
    if vi <> 0. then
      for j = 0 to cols - 1 do
        out.(j) <- out.(j) +. (vi *. m.(i).(j))
      done
  done;
  out

let mat_mul a b =
  let ra, ca = dims a and rb, cb = dims b in
  if ca <> rb then invalid_arg "Linalg.mat_mul: dimension mismatch";
  let out = make ~rows:ra ~cols:cb 0. in
  for i = 0 to ra - 1 do
    for k = 0 to ca - 1 do
      let aik = a.(i).(k) in
      if aik <> 0. then
        for j = 0 to cb - 1 do
          out.(i).(j) <- out.(i).(j) +. (aik *. b.(k).(j))
        done
    done
  done;
  out

let solve a b =
  let n, cols = dims a in
  if n <> cols then invalid_arg "Linalg.solve: matrix must be square";
  if Array.length b <> n then invalid_arg "Linalg.solve: dimension mismatch";
  let m = copy a in
  let x = Array.copy b in
  (* Forward elimination with partial pivoting. *)
  for col = 0 to n - 1 do
    let pivot_row = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs m.(row).(col) > Float.abs m.(!pivot_row).(col) then
        pivot_row := row
    done;
    if Float.abs m.(!pivot_row).(col) < 1e-300 then
      failwith "Linalg.solve: singular matrix";
    if !pivot_row <> col then begin
      let tmp = m.(col) in
      m.(col) <- m.(!pivot_row);
      m.(!pivot_row) <- tmp;
      let tb = x.(col) in
      x.(col) <- x.(!pivot_row);
      x.(!pivot_row) <- tb
    end;
    let pivot = m.(col).(col) in
    for row = col + 1 to n - 1 do
      let factor = m.(row).(col) /. pivot in
      if factor <> 0. then begin
        m.(row).(col) <- 0.;
        for j = col + 1 to n - 1 do
          m.(row).(j) <- m.(row).(j) -. (factor *. m.(col).(j))
        done;
        x.(row) <- x.(row) -. (factor *. x.(col))
      end
    done
  done;
  (* Back substitution. *)
  for row = n - 1 downto 0 do
    let acc = ref x.(row) in
    for j = row + 1 to n - 1 do
      acc := !acc -. (m.(row).(j) *. x.(j))
    done;
    x.(row) <- !acc /. m.(row).(row)
  done;
  x

let norm_inf v = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. v
let norm_l1 v = Array.fold_left (fun acc x -> acc +. Float.abs x) 0. v

let vec_sub a b =
  if Array.length a <> Array.length b then
    invalid_arg "Linalg.vec_sub: length mismatch";
  Array.init (Array.length a) (fun i -> a.(i) -. b.(i))

let vec_scale k v = Array.map (fun x -> k *. x) v

let l1_diff a b =
  if Array.length a <> Array.length b then
    invalid_arg "Linalg.l1_diff: length mismatch";
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. Float.abs (a.(i) -. b.(i))
  done;
  !acc

let max_abs_diff a b =
  if Array.length a <> Array.length b then
    invalid_arg "Linalg.max_abs_diff: length mismatch";
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := Float.max !acc (Float.abs (a.(i) -. b.(i)))
  done;
  !acc

let normalize_l1 v =
  let n = Array.length v in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. v.(i)
  done;
  let total = !total in
  if not (Float.is_finite total) || total = 0. then
    invalid_arg "Linalg.normalize_l1: entries must sum to a finite nonzero value";
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    out.(i) <- v.(i) /. total
  done;
  out
