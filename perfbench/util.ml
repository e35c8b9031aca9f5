(* Small helpers shared by the workloads: clocks, order statistics,
   files under the run directory. *)

let now = Unix.gettimeofday

(* Scratch space for sockets, journals and telemetry, relative to the
   working directory (the checkout root): relative paths keep Unix
   socket names short whatever the checkout path is. *)
let run_dir = ".bench_run"

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let path name =
  mkdir_p run_dir;
  Filename.concat run_dir name

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove p with Sys_error _ -> ())

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Nearest-rank quantile of an unsorted sample; nan when empty. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = quantile xs 0.5

(* The highest percentile, among the usual ones, that leaves at least
   ten samples above it — the tail a sample of this size can support. *)
let tail_q n =
  List.fold_left
    (fun best q ->
      if float_of_int n *. (1. -. q) >= 10. then Float.max best q else best)
    0.5
    [ 0.9; 0.95; 0.98; 0.99; 0.995; 0.999 ]

let sum xs = Array.fold_left ( +. ) 0. xs

(* A growable float sample. *)
module Sample = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let length t = t.n
end

(* What one workload run hands back to [Main]. *)
type metric = { name : string; unit_ : string; value : float }

type outcome = {
  attempted : int;
  failed : int;
  e2e : metric list;  (** the end-to-end slots, in BENCHMARK.json order *)
  report : string list;  (** human lines: every named metric, counts *)
  layers : metric list;  (** per-layer metrics, traced runs only *)
  checks : (string * bool) list;
      (** traced runs only: does the workload load the layer it was
          chosen for? *)
}

let m name unit_ value = { name; unit_; value }

(* A layer check that does not hold is one more failed operation. *)
let count_checks o =
  let bad = List.length (List.filter (fun (_, ok) -> not ok) o.checks) in
  { o with attempted = o.attempted + List.length o.checks; failed = o.failed + bad }
