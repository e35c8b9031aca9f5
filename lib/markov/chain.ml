module Linalg = Nakamoto_numerics.Linalg

(* Rows are stored flat, in the order and with the entries [create] was
   given: row i is [row_ptr.(i), row_ptr.(i + 1)) of [dst]/[prob].  Every
   consumer walks a row in that order, so sums over a row keep their
   historical association. *)
type t = {
  size : int;
  row_ptr : int array;
  dst : int array;
  prob : float array;
  labels : int -> string;
}

let of_fn ?(labels = string_of_int) ~size f =
  if size <= 0 then invalid_arg "Chain.create: size must be positive";
  let row_ptr = Array.make (size + 1) 0 in
  let dst = ref (Array.make (2 * size) 0) in
  let prob = ref (Array.make (2 * size) 0.) in
  let top = ref 0 in
  for i = 0 to size - 1 do
    (* A loop, not List.iter: the running total stays an unboxed float. *)
    let entries = ref (f i) and total = ref 0. and more = ref true in
    while !more do
      match !entries with
      | [] -> more := false
      | (j, p) :: rest ->
        if j < 0 || j >= size then
          invalid_arg
            (Printf.sprintf "Chain.create: row %d targets out-of-range state %d"
               i j);
        if p < 0. || not (Float.is_finite p) then
          invalid_arg
            (Printf.sprintf "Chain.create: row %d has invalid probability" i);
        total := !total +. p;
        if !top = Array.length !dst then begin
          let grow a fill =
            let b = Array.make (2 * !top) fill in
            Array.blit a 0 b 0 !top;
            b
          in
          dst := grow !dst 0;
          prob := grow !prob 0.
        end;
        !dst.(!top) <- j;
        !prob.(!top) <- p;
        incr top;
        entries := rest
    done;
    if Float.abs (!total -. 1.) > 1e-9 then
      invalid_arg
        (Printf.sprintf "Chain.create: row %d sums to %.17g, not 1" i !total);
    row_ptr.(i + 1) <- !top
  done;
  { size; row_ptr; dst = !dst; prob = !prob; labels }

let create ?labels ~size ~rows () =
  if size <= 0 then invalid_arg "Chain.create: size must be positive";
  if Array.length rows <> size then
    invalid_arg "Chain.create: rows array length differs from size";
  of_fn ?labels ~size (fun i -> rows.(i))

let size t = t.size
let label t i = t.labels i

let row t i =
  let out = ref [] in
  for k = t.row_ptr.(i + 1) - 1 downto t.row_ptr.(i) do
    out := (t.dst.(k), t.prob.(k)) :: !out
  done;
  !out

let probability t ~src ~dst =
  if src < 0 || src >= t.size then invalid_arg "Chain.probability: bad src";
  let acc = ref 0. in
  for k = t.row_ptr.(src) to t.row_ptr.(src + 1) - 1 do
    if t.dst.(k) = dst then acc := !acc +. t.prob.(k)
  done;
  !acc

let support_succ t i =
  List.filter_map (fun (j, p) -> if p > 0. then Some j else None) (row t i)

let restrict_support t i = support_succ t i

let is_irreducible t =
  Structure.is_strongly_connected ~succ:(support_succ t) ~n:t.size

let period t = Structure.period ~succ:(support_succ t) ~n:t.size ~start:0
let is_ergodic t = is_irreducible t && period t = 1

let step_distribution t d =
  if Array.length d <> t.size then
    invalid_arg "Chain.step_distribution: size mismatch";
  let out = Array.make t.size 0. in
  for i = 0 to t.size - 1 do
    let di = d.(i) in
    if di <> 0. then
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        let j = t.dst.(k) in
        out.(j) <- out.(j) +. (di *. t.prob.(k))
      done
  done;
  out

let stationary_power_iteration ?(tol = 1e-14) ?(max_iter = 1_000_000) t =
  let d = ref (Array.make t.size (1. /. float_of_int t.size)) in
  let rec iterate k ~last_change =
    if k > max_iter then
      failwith
        (Printf.sprintf
           "Chain.stationary_power_iteration: did not converge within %d \
            iterations (tol %.3g, last L1 residual %.3g); the chain may be \
            periodic or the gap too small for this tol"
           max_iter tol last_change);
    let next = step_distribution t !d in
    let change =
      let acc = ref 0. in
      for i = 0 to t.size - 1 do
        acc := !acc +. Float.abs (next.(i) -. !d.(i))
      done;
      !acc
    in
    d := next;
    if change > tol then iterate (k + 1) ~last_change:change
  in
  iterate 0 ~last_change:infinity;
  Linalg.normalize_l1 !d

let to_sparse t =
  Sparse.of_slices ~rows:t.size ~cols:t.size ~row_ptr:t.row_ptr ~col_idx:t.dst
    ~values:t.prob

let sparse_crossover = 512

let stationary_sparse ?tol ?max_iter ?jobs ?telemetry t =
  let sp = to_sparse t in
  match Sparse.stationary_censor ?telemetry sp with
  | Some pi -> pi
  | None -> (
      match jobs with
      | Some j when j > 1 ->
          Sparse.Pool.with_pool ~jobs:j (fun pool ->
              Sparse.stationary_power ?tol ?max_iter ~pool ?telemetry sp)
      | _ -> Sparse.stationary_power ?tol ?max_iter ?telemetry sp)

let stationary_linear_solve t =
  (* Solve pi P = pi with sum(pi) = 1: build A = P^T - I, replace the last
     equation with the all-ones normalization row. *)
  let n = t.size in
  let a = Linalg.make ~rows:n ~cols:n 0. in
  for i = 0 to n - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.dst.(k) in
      a.(j).(i) <- a.(j).(i) +. t.prob.(k)
    done
  done;
  for i = 0 to n - 1 do
    a.(i).(i) <- a.(i).(i) -. 1.
  done;
  let b = Array.make n 0. in
  for j = 0 to n - 1 do
    a.(n - 1).(j) <- 1.
  done;
  b.(n - 1) <- 1.;
  let pi = Linalg.solve a b in
  Linalg.normalize_l1 pi

let stationary_auto ?jobs ?telemetry t =
  if t.size <= sparse_crossover then stationary_linear_solve t
  else stationary_sparse ?jobs ?telemetry t

let total_variation a b =
  if Array.length a <> Array.length b then
    invalid_arg "Chain.total_variation: length mismatch";
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. Float.abs (x -. b.(i))) a;
  0.5 *. !acc

let mixing_time ?(epsilon = 0.125) ?(horizon = 100_000) t =
  let pi = stationary_linear_solve t in
  (* March all point-mass starts forward together; stop at the first step
     where the worst start is epsilon-close to stationary. *)
  let dists =
    Array.init t.size (fun i ->
        Array.init t.size (fun j -> if i = j then 1. else 0.))
  in
  let worst () =
    Array.fold_left (fun acc d -> Float.max acc (total_variation d pi)) 0. dists
  in
  let rec advance s =
    if worst () <= epsilon then Some s
    else if s >= horizon then None
    else begin
      Array.iteri (fun i d -> dists.(i) <- step_distribution t d) dists;
      advance (s + 1)
    end
  in
  advance 0

(* Inverse-CDF draw over row [i] in stored order; the last entry takes
   the leftover mass. *)
let sample_row rng t i =
  let u = Nakamoto_prob.Rng.float rng in
  let last = t.row_ptr.(i + 1) - 1 in
  let rec pick k acc =
    if k >= last then t.dst.(last)
    else
      let p = t.prob.(k) in
      if u < acc +. p then t.dst.(k) else pick (k + 1) (acc +. p)
  in
  pick t.row_ptr.(i) 0.

let simulate ~rng t ~start ~steps =
  if start < 0 || start >= t.size then invalid_arg "Chain.simulate: bad start";
  if steps < 0 then invalid_arg "Chain.simulate: negative steps";
  let out = Array.make (max steps 1) start in
  let current = ref start in
  for s = 0 to steps - 1 do
    current := sample_row rng t !current;
    out.(s) <- !current
  done;
  if steps = 0 then [||] else out

let occupancy ~rng t ~start ~steps ~target =
  let trajectory = simulate ~rng t ~start ~steps in
  Array.fold_left (fun acc s -> if target s then acc + 1 else acc) 0 trajectory

let visit_counts ~rng t ~start ~steps =
  if start < 0 || start >= t.size then invalid_arg "Chain.visit_counts: bad start";
  if steps < 0 then invalid_arg "Chain.visit_counts: negative steps";
  let counts = Array.make t.size 0 in
  let current = ref start in
  for _ = 1 to steps do
    current := sample_row rng t !current;
    counts.(!current) <- counts.(!current) + 1
  done;
  counts
