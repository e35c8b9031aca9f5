module Linalg = Nakamoto_numerics.Linalg
module Registry = Nakamoto_telemetry.Registry
module Span = Nakamoto_telemetry.Span
module Counter = Nakamoto_telemetry.Counter

type t = {
  rows : int;
  cols : int;
  row_ptr : int array;  (* length rows + 1 *)
  col_idx : int array;  (* length nnz, ascending within each row *)
  values : float array;  (* length nnz *)
}

let rows t = t.rows
let cols t = t.cols
let nnz t = Array.length t.values

(* A row whose columns strictly ascend and whose values are all nonzero
   is already in CSR form. *)
let rec canonical prev = function
  | [] -> true
  | (j, v) :: rest -> j > prev && v <> 0. && canonical j rest

(* Sort a row's entries by column, sum duplicates, drop exact zeros. *)
let coalesce ~cols row_index entries =
  List.iter
    (fun (j, v) ->
      if j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Sparse.create: row %d targets out-of-range column %d"
             row_index j);
      if not (Float.is_finite v) then
        invalid_arg
          (Printf.sprintf "Sparse.create: row %d has a non-finite value"
             row_index))
    entries;
  if canonical (-1) entries then entries
  else begin
    let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) entries in
    let rec merge = function
      | (j1, v1) :: (j2, v2) :: rest when j1 = j2 ->
        merge ((j1, v1 +. v2) :: rest)
      | x :: rest -> x :: merge rest
      | [] -> []
    in
    List.filter (fun (_, v) -> v <> 0.) (merge sorted)
  end

let of_fn ~rows ~cols f =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.create: negative dimension";
  let row_ptr = Array.make (rows + 1) 0 in
  (* Two passes keep peak memory at one row of cons cells beyond the CSR
     arrays themselves — the band-aware generators re-emit each row. *)
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + List.length (coalesce ~cols i (f i))
  done;
  let n = row_ptr.(rows) in
  let col_idx = Array.make n 0 in
  let values = Array.make n 0. in
  for i = 0 to rows - 1 do
    List.iteri
      (fun k (j, v) ->
        col_idx.(row_ptr.(i) + k) <- j;
        values.(row_ptr.(i) + k) <- v)
      (coalesce ~cols i (f i))
  done;
  { rows; cols; row_ptr; col_idx; values }

let of_slices ~rows ~cols ~row_ptr ~col_idx ~values =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.create: negative dimension";
  let slice i =
    let out = ref [] in
    for k = row_ptr.(i + 1) - 1 downto row_ptr.(i) do
      out := (col_idx.(k), values.(k)) :: !out
    done;
    !out
  in
  (* A row is copied as it stands when its columns strictly ascend within
     range and its values are finite and nonzero; any other row takes the
     list path, which also raises the validation errors. *)
  let canonical_slice i =
    let ok = ref true and prev = ref (-1) in
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let j = col_idx.(k) and v = values.(k) in
      if not (j > !prev && j < cols && v <> 0. && Float.is_finite v) then
        ok := false;
      prev := j
    done;
    !ok
  in
  let out_ptr = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    let len =
      if canonical_slice i then row_ptr.(i + 1) - row_ptr.(i)
      else List.length (coalesce ~cols i (slice i))
    in
    out_ptr.(i + 1) <- out_ptr.(i) + len
  done;
  let n = out_ptr.(rows) in
  let out_col = Array.make n 0 and out_val = Array.make n 0. in
  for i = 0 to rows - 1 do
    if canonical_slice i then
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        let d = out_ptr.(i) + k - row_ptr.(i) in
        out_col.(d) <- col_idx.(k);
        out_val.(d) <- values.(k)
      done
    else
      List.iteri
        (fun k (j, v) ->
          out_col.(out_ptr.(i) + k) <- j;
          out_val.(out_ptr.(i) + k) <- v)
        (coalesce ~cols i (slice i))
  done;
  { rows; cols; row_ptr = out_ptr; col_idx = out_col; values = out_val }

let create ~rows ~cols ~entries =
  if Array.length entries <> rows then
    invalid_arg "Sparse.create: entries array length differs from rows";
  of_fn ~rows ~cols (fun i -> entries.(i))

let of_dense m =
  let r, c = Linalg.dims m in
  of_fn ~rows:r ~cols:c (fun i ->
      let row = ref [] in
      for j = c - 1 downto 0 do
        if m.(i).(j) <> 0. then row := (j, m.(i).(j)) :: !row
      done;
      !row)

let to_dense t =
  let m = Linalg.make ~rows:t.rows ~cols:t.cols 0. in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      m.(i).(t.col_idx.(k)) <- m.(i).(t.col_idx.(k)) +. t.values.(k)
    done
  done;
  m

let row t i =
  if i < 0 || i >= t.rows then invalid_arg "Sparse.row: index out of range";
  let out = ref [] in
  for k = t.row_ptr.(i + 1) - 1 downto t.row_ptr.(i) do
    out := (t.col_idx.(k), t.values.(k)) :: !out
  done;
  !out

let transpose t =
  let counts = Array.make t.cols 0 in
  Array.iter (fun j -> counts.(j) <- counts.(j) + 1) t.col_idx;
  let row_ptr = Array.make (t.cols + 1) 0 in
  for j = 0 to t.cols - 1 do
    row_ptr.(j + 1) <- row_ptr.(j) + counts.(j)
  done;
  let pos = Array.sub row_ptr 0 t.cols in
  let n = Array.length t.values in
  let col_idx = Array.make n 0 in
  let values = Array.make n 0. in
  (* Scanning rows in order makes each transposed row's columns (the
     original row indices) ascending — a valid CSR without re-sorting. *)
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      col_idx.(pos.(j)) <- i;
      values.(pos.(j)) <- t.values.(k);
      pos.(j) <- pos.(j) + 1
    done
  done;
  { rows = t.cols; cols = t.rows; row_ptr; col_idx; values }

(* The gather kernel over a contiguous row range: each output entry is a
   left-to-right sum over one CSR row, so any partition of [0, rows) into
   ranges computes bit-identical results. *)
let gather_range t src dst lo hi =
  for i = lo to hi - 1 do
    let acc = ref 0. in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      acc := !acc +. (t.values.(k) *. src.(t.col_idx.(k)))
    done;
    dst.(i) <- !acc
  done

let mul_vec t x =
  if Array.length x <> t.cols then
    invalid_arg "Sparse.mul_vec: dimension mismatch";
  let dst = Array.make t.rows 0. in
  gather_range t x dst 0 t.rows;
  dst

let vec_mul x t =
  if Array.length x <> t.rows then
    invalid_arg "Sparse.vec_mul: dimension mismatch";
  let out = Array.make t.cols 0. in
  for i = 0 to t.rows - 1 do
    let xi = x.(i) in
    if xi <> 0. then
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        out.(t.col_idx.(k)) <- out.(t.col_idx.(k)) +. (xi *. t.values.(k))
      done
  done;
  out

module Pool = struct
  type job = { m : t; src : float array; dst : float array }

  type pool = {
    jobs : int;
    mu : Mutex.t;
    work : Condition.t;
    done_c : Condition.t;
    mutable generation : int;
    mutable remaining : int;
    mutable job : job option;
    mutable stop : bool;
    mutable domains : unit Domain.t list;
    mutable alive : bool;
  }

  let range ~n ~jobs w = (n * w / jobs, n * (w + 1) / jobs)

  let worker p w =
    let last = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock p.mu;
      while (not p.stop) && p.generation = !last do
        Condition.wait p.work p.mu
      done;
      if p.stop then begin
        Mutex.unlock p.mu;
        running := false
      end
      else begin
        last := p.generation;
        let job = Option.get p.job in
        Mutex.unlock p.mu;
        let lo, hi = range ~n:job.m.rows ~jobs:p.jobs w in
        gather_range job.m job.src job.dst lo hi;
        Mutex.lock p.mu;
        p.remaining <- p.remaining - 1;
        if p.remaining = 0 then Condition.signal p.done_c;
        Mutex.unlock p.mu
      end
    done

  let create ~jobs =
    if jobs < 1 then invalid_arg "Sparse.Pool.create: jobs must be >= 1";
    let p =
      {
        jobs;
        mu = Mutex.create ();
        work = Condition.create ();
        done_c = Condition.create ();
        generation = 0;
        remaining = 0;
        job = None;
        stop = false;
        domains = [];
        alive = true;
      }
    in
    p.domains <-
      List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker p (i + 1)));
    p

  let jobs p = p.jobs

  let shutdown p =
    if p.alive then begin
      Mutex.lock p.mu;
      p.stop <- true;
      Condition.broadcast p.work;
      Mutex.unlock p.mu;
      List.iter Domain.join p.domains;
      p.domains <- [];
      p.alive <- false
    end

  let with_pool ~jobs f =
    let p = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
end

let mul_vec_pool (p : Pool.pool) t x =
  if not p.Pool.alive then invalid_arg "Sparse.mul_vec_pool: pool is shut down";
  if Array.length x <> t.cols then
    invalid_arg "Sparse.mul_vec_pool: dimension mismatch";
  let dst = Array.make t.rows 0. in
  if p.Pool.jobs = 1 then gather_range t x dst 0 t.rows
  else begin
    Mutex.lock p.Pool.mu;
    p.Pool.job <- Some { Pool.m = t; src = x; dst };
    p.Pool.generation <- p.Pool.generation + 1;
    p.Pool.remaining <- p.Pool.jobs - 1;
    Condition.broadcast p.Pool.work;
    Mutex.unlock p.Pool.mu;
    (* The calling domain is worker 0. *)
    let lo, hi = Pool.range ~n:t.rows ~jobs:p.Pool.jobs 0 in
    gather_range t x dst lo hi;
    Mutex.lock p.Pool.mu;
    while p.Pool.remaining > 0 do
      Condition.wait p.Pool.done_c p.Pool.mu
    done;
    p.Pool.job <- None;
    Mutex.unlock p.Pool.mu
  end;
  dst

(* ------------------------------------------------------------------ *)
(* Stationary solvers                                                  *)
(* ------------------------------------------------------------------ *)

let solver_span telemetry which =
  Option.map
    (fun r ->
      Registry.span r ~labels:[ ("solver", which) ] "markov_stationary_seconds")
    telemetry

let check_square name t =
  if t.rows <> t.cols then invalid_arg (name ^ ": matrix must be square");
  if t.rows = 0 then invalid_arg (name ^ ": empty matrix")

(* In-place insertion sort of the parallel (key, value) slices
   [off, off + len) — rows and predecessor sets are a handful of entries,
   far below where an O(n log n) sort pays off, and keys are distinct, so
   the result does not depend on the sort. *)
let sort_pairs (keys : int array) (vals : float array) off len =
  for i = off + 1 to off + len - 1 do
    let k = keys.(i) and v = vals.(i) in
    let j = ref (i - 1) in
    while !j >= off && keys.(!j) > k do
      keys.(!j + 1) <- keys.(!j);
      vals.(!j + 1) <- vals.(!j);
      decr j
    done;
    keys.(!j + 1) <- k;
    vals.(!j + 1) <- v
  done

let grow_ints a need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_floats a need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0. in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Working storage of the elimination, flat and allocated once per solve:
   - every working row is a slice of one (column, value) pool: row i
     holds [len.(i)] entries from [start.(i)], with room for [cap.(i)];
     a full row moves to the end of the pool with twice the room;
   - predecessor sets are linked lists threaded through one node pool
     ([pred_head] per column, [pred_row]/[pred_next] per node), newest
     first.  Only entries (i, j) with i < j get a node: column j is read
     when j is eliminated, and every row i > j is gone by then;
   - [slot] maps a column to its offset in the row being updated, so
     fill-in finds an entry in O(1) however long the row grows;
   - the unfold is one (row, weight) pool cut into per-state slices,
     appended as states are eliminated from the top down: state k's
     slice runs from [u_start.(k)] to [u_start.(k - 1)], and
     [u_start.(0)] closes the last one. *)
type work = {
  mutable col : int array;
  mutable value : float array;
  mutable top : int;
  start : int array;
  len : int array;
  cap : int array;
  pred_head : int array;
  mutable pred_row : int array;
  mutable pred_next : int array;
  mutable pred_top : int;
  slot : int array;
  mutable u_row : int array;
  mutable u_weight : float array;
  mutable u_top : int;
  u_start : int array;
}

let push_pred w j i =
  if i < j then begin
    let x = w.pred_top in
    if x = Array.length w.pred_row then begin
      w.pred_row <- grow_ints w.pred_row (x + 1);
      w.pred_next <- grow_ints w.pred_next (x + 1)
    end;
    w.pred_row.(x) <- i;
    w.pred_next.(x) <- w.pred_head.(j);
    w.pred_head.(j) <- x;
    w.pred_top <- x + 1
  end

(* Pool index of a fresh last slot of row [i]. *)
let push_entry w i =
  if w.len.(i) = w.cap.(i) then begin
    let c = max 4 (2 * w.cap.(i)) in
    if w.top + c > Array.length w.col then begin
      w.col <- grow_ints w.col (w.top + c);
      w.value <- grow_floats w.value (w.top + c)
    end;
    Array.blit w.col w.start.(i) w.col w.top w.len.(i);
    Array.blit w.value w.start.(i) w.value w.top w.len.(i);
    w.start.(i) <- w.top;
    w.cap.(i) <- c;
    w.top <- w.top + c
  end;
  let e = w.start.(i) + w.len.(i) in
  w.len.(i) <- w.len.(i) + 1;
  e

(* Appends (i, p_ik) to the unfold, p_ik read from pool index [e]. *)
let push_unfold w i e =
  let x = w.u_top in
  if x = Array.length w.u_row then begin
    w.u_row <- grow_ints w.u_row (x + 1);
    w.u_weight <- grow_floats w.u_weight (x + 1)
  end;
  w.u_row.(x) <- i;
  w.u_weight.(x) <- w.value.(e);
  w.u_top <- x + 1

(* Pool index of column [j] in row [i], or -1. *)
let find_entry w i j =
  let e = ref w.start.(i) and stop = w.start.(i) + w.len.(i) in
  while !e < stop && w.col.(!e) <> j do
    incr e
  done;
  if !e < stop then !e else -1

(* GTH state reduction.  Diagonal entries are never consulted — the
   censoring step conditions on leaving the eliminated state and the
   unfolding reads only strictly-lower column entries — so they are
   dropped at load time and never created by fill-in. *)
let stationary_censor ?fill_budget ?telemetry t =
  check_square "Sparse.stationary_censor" t;
  let n = t.rows in
  let fill_budget =
    match fill_budget with Some b -> b | None -> max 200_000 (64 * n)
  in
  let span = solver_span telemetry "censor" in
  let compute () =
    if n = 1 then Some [| 1. |]
    else begin
      let nnz = Array.length t.values in
      let w =
        {
          col = Array.make nnz 0;
          value = Array.make nnz 0.;
          top = 0;
          start = Array.make n 0;
          len = Array.make n 0;
          cap = Array.make n 0;
          pred_head = Array.make n (-1);
          pred_row = Array.make nnz 0;
          pred_next = Array.make nnz 0;
          pred_top = 0;
          slot = Array.make n (-1);
          u_row = Array.make n 0;
          u_weight = Array.make n 0.;
          u_top = 0;
          u_start = Array.make n 0;
        }
      in
      let live = ref 0 in
      for i = 0 to n - 1 do
        w.start.(i) <- w.top;
        for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
          let j = t.col_idx.(k) in
          if i <> j && t.values.(k) > 0. then begin
            w.col.(w.top) <- j;
            w.value.(w.top) <- t.values.(k);
            w.top <- w.top + 1;
            push_pred w j i;
            incr live
          end
        done;
        w.len.(i) <- w.top - w.start.(i);
        w.cap.(i) <- w.len.(i)
      done;
      let blown = ref (!live > fill_budget) in
      let k = ref (n - 1) in
      while (not !blown) && !k >= 1 do
        let kk = !k in
        let ks = w.start.(kk) and kl = w.len.(kk) in
        sort_pairs w.col w.value ks kl;
        (* Columns >= kk were removed when those states were eliminated,
           and the diagonal is never stored, so the whole surviving row
           sums to S_k. *)
        let s = ref 0. in
        for x = ks to ks + kl - 1 do
          s := !s +. w.value.(x)
        done;
        let s = !s in
        if not (s > 0.) then
          invalid_arg
            (Printf.sprintf
               "Sparse.stationary_censor: state %d has no flow to lower \
                states - the chain is reducible"
               kk);
        (* kk's unfold slice: its predecessors i < kk with p_ik, present
           in row i because column kk is only ever removed right here.
           Nodes go stale when i is eliminated and are skipped.  The list
           is newest first; reversing it restores insertion order, which
           is mostly ascending, so the insertion sort stays near linear. *)
        let u0 = w.u_top in
        let node = ref w.pred_head.(kk) in
        while !node >= 0 do
          let i = w.pred_row.(!node) in
          if i < kk then begin
            let e = find_entry w i kk in
            if e >= 0 then push_unfold w i e
          end;
          node := w.pred_next.(!node)
        done;
        let m = w.u_top - u0 in
        for x = 0 to (m / 2) - 1 do
          let a = u0 + x and b = u0 + m - 1 - x in
          let ra = w.u_row.(a) and wa = w.u_weight.(a) in
          w.u_row.(a) <- w.u_row.(b);
          w.u_weight.(a) <- w.u_weight.(b);
          w.u_row.(b) <- ra;
          w.u_weight.(b) <- wa
        done;
        sort_pairs w.u_row w.u_weight u0 m;
        for x = u0 to u0 + m - 1 do
          w.u_weight.(x) <- w.u_weight.(x) /. s
        done;
        w.u_start.(kk) <- u0;
        (* Censor kk: each predecessor, ascending, drops column kk and
           takes its share of row kk.  Row kk itself never moves (fill
           lands only in rows i < kk), but the pool may be reallocated,
           so it is read through [w] at every step. *)
        for x = u0 to u0 + m - 1 do
          let i = w.u_row.(x) and scaled = w.u_weight.(x) in
          for e = 0 to w.len.(i) - 1 do
            w.slot.(w.col.(w.start.(i) + e)) <- e
          done;
          let e = w.slot.(kk) in
          if e >= 0 then begin
            let last = w.start.(i) + w.len.(i) - 1 in
            let p = w.start.(i) + e in
            w.col.(p) <- w.col.(last);
            w.value.(p) <- w.value.(last);
            w.slot.(w.col.(p)) <- e;
            w.slot.(kk) <- -1;
            w.len.(i) <- w.len.(i) - 1;
            decr live
          end;
          for y = ks to ks + kl - 1 do
            let j = w.col.(y) in
            if i <> j then begin
              let add = scaled *. w.value.(y) in
              let e = w.slot.(j) in
              if e >= 0 then begin
                let p = w.start.(i) + e in
                w.value.(p) <- w.value.(p) +. add
              end
              else begin
                (* Row kk's columns are distinct, so j is not looked up
                   again for this row and needs no slot. *)
                let p = push_entry w i in
                w.col.(p) <- j;
                w.value.(p) <- add;
                push_pred w j i;
                incr live;
                if !live > fill_budget then blown := true
              end
            end
          done;
          for p = w.start.(i) to w.start.(i) + w.len.(i) - 1 do
            w.slot.(w.col.(p)) <- -1
          done
        done;
        decr k
      done;
      if !blown then None
      else begin
        w.u_start.(0) <- w.u_top;
        let pi = Array.make n 0. in
        pi.(0) <- 1.;
        for kk = 1 to n - 1 do
          let acc = ref 0. in
          for x = w.u_start.(kk) to w.u_start.(kk - 1) - 1 do
            acc := !acc +. (pi.(w.u_row.(x)) *. w.u_weight.(x))
          done;
          pi.(kk) <- !acc
        done;
        Some (Linalg.normalize_l1 pi)
      end
    end
  in
  match span with Some s -> Span.time s compute | None -> compute ()

let aitken_window = 16

let stationary_power ?(tol = 1e-14) ?(max_iter = 1_000_000) ?pool ?telemetry t =
  check_square "Sparse.stationary_power" t;
  let n = t.rows in
  let span = solver_span telemetry "power" in
  let counter =
    Option.map (fun r -> Registry.counter r "markov_spmv_states_total") telemetry
  in
  let compute () =
    if n = 1 then [| 1. |]
    else begin
      let pt = transpose t in
      let mul =
        match pool with
        | Some pl -> fun d -> mul_vec_pool pl pt d
        | None -> fun d -> mul_vec pt d
      in
      let d = ref (Array.make n (1. /. float_of_int n)) in
      let steps = ref 0 in
      let converged = ref false in
      let last_r = ref infinity in
      let window_r = ref nan in
      let rho = ref nan in
      let projected = ref infinity in
      while (not !converged) && !steps < max_iter do
        let next = mul !d in
        (match counter with Some c -> Counter.add c n | None -> ());
        let r = Linalg.l1_diff next !d in
        d := next;
        incr steps;
        last_r := r;
        if r <= tol then converged := true
        else if !steps mod aitken_window = 0 then begin
          (* Aitken-style projection: the windowed geometric decay ratio
             rho bounds the remaining distance by the geometric tail
             r * rho / (1 - rho), so a clean slow decay stops as soon as
             the projection clears tol rather than when r itself does. *)
          (if Float.is_finite !window_r && !window_r > 0. then begin
             let ratio = (r /. !window_r) ** (1. /. float_of_int aitken_window) in
             rho := ratio;
             if ratio < 1. then begin
               projected := r *. ratio /. (1. -. ratio);
               if !projected <= tol then converged := true
             end
           end);
          window_r := r
        end
      done;
      if not !converged then
        failwith
          (Printf.sprintf
             "Sparse.stationary_power: did not converge within %d iterations \
              (tol %.3g, last L1 residual %.3g, projected error %.3g, current \
              gap estimate %.3g)"
             max_iter tol !last_r !projected
             (1. -. !rho));
      Linalg.normalize_l1 !d
    end
  in
  match span with Some s -> Span.time s compute | None -> compute ()
