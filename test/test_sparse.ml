(* CSR kernel unit tests: construction round-trips, mat-vec against the
   dense reference on edge shapes, domain-pool bit-identity, and the
   stationary solvers on chains with known distributions. *)

open Helpers
module Chain = Nakamoto_markov.Chain
module Sparse = Nakamoto_markov.Sparse
module Linalg = Nakamoto_numerics.Linalg
module Suffix_chain = Nakamoto_core.Suffix_chain

let check_dense msg expected actual =
  let re, ce = Linalg.dims expected and ra, ca = Linalg.dims actual in
  check_int (msg ^ ": rows") re ra;
  check_int (msg ^ ": cols") ce ca;
  for i = 0 to re - 1 do
    for j = 0 to ce - 1 do
      if expected.(i).(j) <> actual.(i).(j) then
        Alcotest.failf "%s: entry (%d,%d) is %.17g, expected %.17g" msg i j
          actual.(i).(j) expected.(i).(j)
    done
  done

let check_vec msg expected actual =
  check_int (msg ^ ": length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i v ->
      if v <> expected.(i) then
        Alcotest.failf "%s: entry %d is %.17g, expected %.17g" msg i v
          expected.(i))
    actual

(* A rectangular matrix exercising every row shape at once: an empty
   row, a single-entry row, and a full row. *)
let awkward =
  [| [| 0.; 0.; 0. |]; [| 0.; 2.5; 0. |]; [| 1.; -3.; 0.5 |]; [| 0.; 0.; 4. |] |]

let test_roundtrip () =
  List.iter
    (fun (name, m) ->
      check_dense name m (Sparse.to_dense (Sparse.of_dense m)))
    [
      ("awkward", awkward);
      ("1x1", [| [| 7. |] |]);
      ("1x1 zero", [| [| 0. |] |]);
      ("all-zero 3x2", Linalg.make ~rows:3 ~cols:2 0.);
    ]

let test_create_coalesces () =
  (* Duplicate columns sum; explicit zeros disappear; columns sort. *)
  let sp =
    Sparse.create ~rows:2 ~cols:3
      ~entries:[| [ (2, 1.); (0, 0.5); (2, 2.) ]; [ (1, 0.) ] |]
  in
  check_int "nnz after coalescing" 2 (Sparse.nnz sp);
  check_true "row 0 sorted and summed"
    (Sparse.row sp 0 = [ (0, 0.5); (2, 3.) ]);
  check_true "row 1 dropped its zero" (Sparse.row sp 1 = [])

let test_create_validates () =
  check_raises_invalid "column out of range" (fun () ->
      Sparse.create ~rows:1 ~cols:2 ~entries:[| [ (2, 1.) ] |]);
  check_raises_invalid "negative column" (fun () ->
      Sparse.create ~rows:1 ~cols:2 ~entries:[| [ (-1, 1.) ] |]);
  check_raises_invalid "non-finite value" (fun () ->
      Sparse.create ~rows:1 ~cols:2 ~entries:[| [ (0, Float.nan) ] |]);
  check_raises_invalid "entries length mismatch" (fun () ->
      Sparse.create ~rows:2 ~cols:2 ~entries:[| [] |])

let test_mat_vec_edge_shapes () =
  let x3 = [| 2.; -1.; 0.5 |] in
  let sp = Sparse.of_dense awkward in
  check_vec "awkward A x" (Linalg.mat_vec awkward x3) (Sparse.mul_vec sp x3);
  let x4 = [| 1.; 2.; 3.; 4. |] in
  check_vec "awkward x A" (Linalg.vec_mat x4 awkward) (Sparse.vec_mul x4 sp);
  (* 1-state. *)
  let one = Sparse.of_dense [| [| 0.25 |] |] in
  check_vec "1-state" [| 0.5 |] (Sparse.mul_vec one [| 2. |]);
  (* Full bandwidth: a dense 5x5 has every CSR row full. *)
  let full =
    Array.init 5 (fun i ->
        Array.init 5 (fun j -> float_of_int (((i * 5) + j + 1) mod 7)))
  in
  let x5 = Array.init 5 (fun i -> float_of_int i -. 2.) in
  check_vec "full bandwidth"
    (Linalg.mat_vec full x5)
    (Sparse.mul_vec (Sparse.of_dense full) x5);
  check_raises_invalid "mul_vec dimension mismatch" (fun () ->
      ignore (Sparse.mul_vec sp x4));
  check_raises_invalid "vec_mul dimension mismatch" (fun () ->
      ignore (Sparse.vec_mul x3 sp))

let test_transpose () =
  let sp = Sparse.of_dense awkward in
  check_dense "transpose"
    (Linalg.transpose awkward)
    (Sparse.to_dense (Sparse.transpose sp));
  check_int "transpose nnz" (Sparse.nnz sp) (Sparse.nnz (Sparse.transpose sp))

let test_pool_bit_identity () =
  (* A 101-row banded matrix (rows not divisible by any jobs value) —
     every worker count must reproduce the sequential kernel bitwise. *)
  let n = 101 in
  let m =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if abs (i - j) <= 2 then 1. /. float_of_int (i + j + 1) else 0.))
  in
  let sp = Sparse.of_dense m in
  let x = Array.init n (fun i -> sin (float_of_int (i + 1))) in
  let expected = Sparse.mul_vec sp x in
  List.iter
    (fun jobs ->
      let got =
        Sparse.Pool.with_pool ~jobs (fun p -> Sparse.mul_vec_pool p sp x)
      in
      check_vec (Printf.sprintf "jobs=%d" jobs) expected got)
    [ 1; 2; 3; 4; 7 ]

let test_pool_lifecycle () =
  let p = Sparse.Pool.create ~jobs:2 in
  check_int "jobs" 2 (Sparse.Pool.jobs p);
  Sparse.Pool.shutdown p;
  Sparse.Pool.shutdown p;
  (* idempotent *)
  check_raises_invalid "shut-down pool rejected" (fun () ->
      ignore (Sparse.mul_vec_pool p (Sparse.of_dense [| [| 1. |] |]) [| 1. |]));
  check_raises_invalid "jobs < 1" (fun () ->
      ignore (Sparse.Pool.create ~jobs:0))

let weather = [| [| 0.7; 0.3 |]; [| 0.5; 0.5 |] |]

let test_censor_weather () =
  (* pi = (b, a) / (a + b) for [[1-a, a], [b, 1-b]]: (0.625, 0.375). *)
  match Sparse.stationary_censor (Sparse.of_dense weather) with
  | None -> Alcotest.fail "2-state censoring cannot blow its fill budget"
  | Some pi ->
    close "pi(0)" 0.625 pi.(0);
    close "pi(1)" 0.375 pi.(1)

let test_censor_ladder_matches_closed_form () =
  let delta = 600 and alpha = 0.01 in
  let sp = Suffix_chain.build_sparse ~delta ~alpha in
  let closed = Suffix_chain.stationary_closed_form ~delta ~alpha in
  match Sparse.stationary_censor sp with
  | None -> Alcotest.fail "ladder chain must stay within the fill budget"
  | Some pi ->
    check_true "censor vs Eq. 37 below 1e-13"
      (Linalg.max_abs_diff pi closed < 1e-13)

let test_censor_fill_budget () =
  (* The budget bounds the LIVE entry count, so a budget below the
     initial nnz must abort before any elimination happens. *)
  let n = 20 in
  let m =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = 0 then 1. /. float_of_int n
            else if j = i - 1 then 1.
            else 0.))
  in
  match Sparse.stationary_censor ~fill_budget:5 (Sparse.of_dense m) with
  | None -> ()
  | Some _ -> Alcotest.fail "fill_budget:5 must abort the solve"

let test_censor_reducible_rejected () =
  (* State 1 has no flow to lower states. *)
  let sp = Sparse.create ~rows:2 ~cols:2 ~entries:[| [ (0, 1.) ]; [ (1, 1.) ] |] in
  check_raises_invalid "reducible chain rejected" (fun () ->
      ignore (Sparse.stationary_censor sp));
  check_raises_invalid "non-square rejected" (fun () ->
      ignore (Sparse.stationary_censor (Sparse.of_dense awkward)))

let test_power_weather () =
  let pi = Sparse.stationary_power (Sparse.of_dense weather) in
  close "pi(0)" 0.625 pi.(0);
  close "pi(1)" 0.375 pi.(1);
  let one = Sparse.stationary_power (Sparse.of_dense [| [| 1. |] |]) in
  close "singleton" 1. one.(0)

let test_power_nonconvergence_message () =
  (* An asymmetric sticky chain (contraction ~0.97 per step) cannot
     reach 1e-14 in 64 steps: the failure must carry the iteration
     budget, tol, residual and the gap estimate. *)
  let sticky = Sparse.of_dense [| [| 0.99; 0.01 |]; [| 0.02; 0.98 |] |] in
  match Sparse.stationary_power ~max_iter:64 sticky with
  | _ -> Alcotest.fail "expected non-convergence in 64 steps"
  | exception Failure msg ->
    List.iter
      (fun affix ->
        check_true
          (Printf.sprintf "message mentions %s" affix)
          (contains_substring ~affix msg))
      [ "64 iterations"; "tol 1e-14"; "last L1 residual"; "gap estimate" ]

let test_chain_stationary_sparse () =
  let chain =
    Chain.create ~size:2
      ~rows:[| [ (0, 0.7); (1, 0.3) ]; [ (0, 0.5); (1, 0.5) ] |]
      ()
  in
  let pi = Chain.stationary_sparse chain in
  close "pi(0)" 0.625 pi.(0);
  close "pi(1)" 0.375 pi.(1);
  (* Duplicate targets coalesce on the way into CSR. *)
  let dup =
    Chain.create ~size:2
      ~rows:[| [ (0, 0.35); (1, 0.3); (0, 0.35) ]; [ (0, 0.5); (1, 0.5) ] |]
      ()
  in
  check_int "duplicates coalesced" 4 (Sparse.nnz (Chain.to_sparse dup));
  let pi' = Chain.stationary_sparse dup in
  close "coalesced pi(0)" 0.625 pi'.(0)

let test_stationary_auto_crossover () =
  (* At or below the crossover, auto IS the dense LU result, bitwise. *)
  let below = Suffix_chain.build ~delta:255 ~alpha:0.2 in
  check_int "just below crossover" 511 (Chain.size below);
  let dense = Chain.stationary_linear_solve below in
  let auto = Chain.stationary_auto below in
  Array.iteri
    (fun i v ->
      if v <> dense.(i) then
        Alcotest.failf "auto differs from dense LU at state %d below crossover"
          i)
    auto;
  (* Above it, the sparse path takes over and must still match theory. *)
  let above = Suffix_chain.build ~delta:300 ~alpha:0.05 in
  check_true "above crossover" (Chain.size above > Chain.sparse_crossover);
  let closed = Suffix_chain.stationary_closed_form ~delta:300 ~alpha:0.05 in
  check_true "sparse path matches Eq. 37"
    (Linalg.max_abs_diff (Chain.stationary_auto above) closed < 1e-12)

let test_telemetry_instrumentation () =
  let registry = Nakamoto_telemetry.Registry.create ~clock:(fun () -> 0.) () in
  let sp = Suffix_chain.build_sparse ~delta:100 ~alpha:0.05 in
  (match Sparse.stationary_censor ~telemetry:registry sp with
  | Some _ -> ()
  | None -> Alcotest.fail "censor must solve the ladder");
  ignore (Sparse.stationary_power ~telemetry:registry sp);
  let snap = Nakamoto_telemetry.Registry.snapshot registry in
  let module S = Nakamoto_telemetry.Registry.Snapshot in
  (match
     S.find snap "markov_stationary_seconds"
       ~labels:[ ("solver", "censor") ]
   with
  | Some (S.Span _) -> ()
  | _ -> Alcotest.fail "censor span missing");
  (match
     S.find snap "markov_stationary_seconds" ~labels:[ ("solver", "power") ]
   with
  | Some (S.Span _) -> ()
  | _ -> Alcotest.fail "power span missing");
  match S.find snap "markov_spmv_states_total" with
  | Some (S.Counter states) ->
    check_true "spmv counter counts states" (states > 0)
  | _ -> Alcotest.fail "spmv counter missing"


(* --- bit pins -------------------------------------------------------
   Digests of the exact bits the censoring kernel returns, so a rewrite
   of its working storage must reproduce every float, every fill-budget
   abort and every reducibility message. *)

module Rng = Nakamoto_prob.Rng
module Conv_chain = Nakamoto_core.Conv_chain
module Params = Nakamoto_core.Params

let bits_digest = function
  | None -> "none"
  | Some pi ->
    let b = Buffer.create (16 * Array.length pi) in
    Array.iter
      (fun x ->
        Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float x)))
      pi;
    Digest.to_hex (Digest.string (Buffer.contents b))

let censor_digest ?fill_budget sp =
  match Sparse.stationary_censor ?fill_budget sp with
  | r -> bits_digest r
  | exception Invalid_argument msg -> "invalid: " ^ msg

(* A seeded banded chain with random long-range fill: each row keeps a
   random subset of its [band]-wide neighbourhood, always the step down
   to [i - 1] (unless [drop_down] fires for the row, which makes the
   chain reducible at some state), plus [long] random columns anywhere.
   Rows are normalized to sum to 1. *)
let fill_chain ~seed ~n ~band ~long ~drop_down =
  let rng = Rng.create ~seed in
  let rows =
    Array.init n (fun i ->
        let cut = drop_down > 0. && Rng.float rng < drop_down in
        let keep j = j >= 0 && j < n && j <> i && not (cut && j < i) in
        let entries = ref [] in
        let add j =
          if keep j then entries := (j, 0.01 +. Rng.float rng) :: !entries
        in
        if i > 0 then add (i - 1);
        for d = -band to band do
          if d <> 0 && d <> -1 && Rng.float rng < 0.6 then add (i + d)
        done;
        for _ = 1 to long do
          add (Rng.int rng ~bound:n)
        done;
        if !entries = [] then entries := [ (i, 1.) ];
        let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. !entries in
        List.map (fun (j, v) -> (j, v /. total)) !entries)
  in
  Sparse.create ~rows:n ~cols:n ~entries:rows

let test_pin_suffix_chain () =
  List.iter
    (fun (delta, alpha, expected) ->
      let sp = Suffix_chain.build_sparse ~delta ~alpha in
      Alcotest.(check string)
        (Printf.sprintf "C_F censor bits, delta=%d alpha=%g" delta alpha)
        expected (censor_digest sp);
      if Suffix_chain.state_count ~delta > Chain.sparse_crossover then
        Alcotest.(check string)
          (Printf.sprintf "C_F stationary_auto bits, delta=%d alpha=%g" delta
             alpha)
          expected
          (bits_digest
             (Some (Chain.stationary_auto (Suffix_chain.build ~delta ~alpha)))))
    [
      (1, 1e-4, "b66e31238ca8defc1afd9a4342b196eb");
      (1, 0.01, "edd9898835fb62865f36f6cd0ef8ac20");
      (1, 0.3, "c61e42179f990e687e1220994b1df6b1");
      (1, 0.9, "f63625b2b5197878d07f3fbdc1f18524");
      (7, 1e-4, "28a2d77d5566e1cd31ff3c3415ed44a8");
      (7, 0.01, "31365cfaaa730870ea4adbd54a0d3700");
      (7, 0.3, "3a120f94eef201a06777cd2e93987d07");
      (7, 0.9, "d32662ff6ae53577aa9fb17e493b1023");
      (256, 1e-4, "0836cc1b0b634cf15ad803dc73019042");
      (256, 0.01, "0fbee23bd9cb6c1ca689a30d95307c60");
      (256, 0.3, "9862a3f84d6442083fc637dd2fc2dc3f");
      (256, 0.9, "becd2845207c7a2220026fca5b8ea728");
      (600, 1e-4, "97618629927712087ac99bc8bac0527f");
      (600, 0.01, "5e91cd364d9f3bea85213dab41a259ef");
      (600, 0.3, "50eda237304e96e693b4c9aefd591b08");
      (600, 0.9, "a17b889bb5b4f897b5c240fb019cceaa");
      (2048, 1e-4, "0c28a67cba23c71a9f910265886cf1c4");
      (2048, 0.01, "e77d02532507fb1213476ce0813611bb");
      (2048, 0.3, "ffbb909a3506013cf787b4e70cfcd824");
      (2048, 0.9, "3cf960d2ea11023498321f50883423c4");
      (4096, 1e-4, "477eb230aefddc608f0811af1f807c4a");
      (4096, 0.01, "524e6256bf2f2e2562b4e52ab6119650");
      (4096, 0.3, "58001521f98bb3fa8cd55d4e19a99030");
      (4096, 0.9, "4fe31aad6e22e378aedc9d70b394ba4d");
    ]

let csr_digest sp =
  let b = Buffer.create 1024 in
  for i = 0 to Sparse.rows sp - 1 do
    List.iter
      (fun (j, v) ->
        Buffer.add_string b (Printf.sprintf "%d:%Lx," j (Int64.bits_of_float v)))
      (Sparse.row sp i);
    Buffer.add_char b ';'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pin_conv_chain () =
  List.iter
    (fun (delta, expected_csr, expected_pi) ->
      let p =
        Params.create ~n:50. ~delta:(float_of_int delta) ~p:0.01 ~nu:0.2
      in
      let sp = Conv_chain.build_sparse ~delta p in
      Alcotest.(check string)
        (Printf.sprintf "C_F||P CSR bits, delta=%d" delta)
        expected_csr (csr_digest sp);
      Alcotest.(check string)
        (Printf.sprintf "C_F||P censor bits, delta=%d" delta)
        expected_pi (censor_digest sp))
    [
      (1, "c05300bfcbd217eaaf0eb3d700694013",
          "3bae3e480539c1576ea37d06e725e560");
      (2, "5af754a2317d96c4359a420c1847f932",
          "03b1842c8b456718d6f47970f78811cf");
      (3, "a3fcb14c1e82d4beb67055dd0735e203",
          "58b5ef4a0e9123d96e628efb40f5e178");
      (4, "5d640b2e823f4e49d6d943d598b84995",
          "a6940146c59b777ae61dca62a53f36f1");
    ]

let test_of_slices_matches_create () =
  (* Row 0 is canonical and copied; rows 1-3 are unsorted, duplicated or
     carry a zero and go through the coalescing path; row 4 is empty. *)
  let entries =
    [|
      [ (0, 0.5); (2, 1.5) ];
      [ (2, 1.); (0, 0.5) ];
      [ (1, 0.25); (1, 0.5); (0, 2.) ];
      [ (0, 0.); (1, 3.) ];
      [];
    |]
  in
  let row_ptr = Array.make 6 0 in
  Array.iteri
    (fun i r -> row_ptr.(i + 1) <- row_ptr.(i) + List.length r)
    entries;
  let flat = List.concat (Array.to_list entries) in
  let col_idx = Array.of_list (List.map fst flat) in
  let values = Array.of_list (List.map snd flat) in
  let sp = Sparse.of_slices ~rows:5 ~cols:3 ~row_ptr ~col_idx ~values in
  Alcotest.(check string) "same CSR as create"
    (csr_digest (Sparse.create ~rows:5 ~cols:3 ~entries))
    (csr_digest sp);
  check_raises_invalid "out-of-range column" (fun () ->
      Sparse.of_slices ~rows:1 ~cols:2 ~row_ptr:[| 0; 1 |] ~col_idx:[| 2 |]
        ~values:[| 1. |]);
  check_raises_invalid "non-finite value" (fun () ->
      Sparse.of_slices ~rows:1 ~cols:2 ~row_ptr:[| 0; 1 |] ~col_idx:[| 1 |]
        ~values:[| Float.infinity |])

let test_canonical_rows_still_validated () =
  (* The fast path for ascending rows must not skip the checks. *)
  check_raises_invalid "ascending row, column out of range" (fun () ->
      Sparse.create ~rows:1 ~cols:2 ~entries:[| [ (0, 1.); (5, 1.) ] |]);
  check_raises_invalid "ascending row, non-finite value" (fun () ->
      Sparse.create ~rows:1 ~cols:2 ~entries:[| [ (0, Float.nan) ] |]);
  let sp = Sparse.create ~rows:1 ~cols:3 ~entries:[| [ (0, 1.); (2, -1.) ] |] in
  check_true "ascending row kept" (Sparse.row sp 0 = [ (0, 1.); (2, -1.) ])

let test_pin_fill_chains () =
  List.iter
    (fun (name, seed, n, band, long, drop_down, fill_budget, expected) ->
      let sp = fill_chain ~seed ~n ~band ~long ~drop_down in
      (* A budget above the initial nnz aborts mid-elimination, on fill. *)
      Option.iter
        (fun b -> check_true (name ^ ": budget above nnz") (Sparse.nnz sp < b))
        fill_budget;
      Alcotest.(check string) name expected (censor_digest ?fill_budget sp))
    [
      ( "n=60 band 3 + 2 long", 11L, 60, 3, 2, 0., None,
        "4bbdd9c537dcc2f485aad99497f1aee3" );
      ( "n=90 band 5 + 3 long", 12L, 90, 5, 3, 0., None,
        "d1121c8003eda21f88f734dd942dbef3" );
      ( "n=120 band 4 + 4 long", 13L, 120, 4, 4, 0., None,
        "7d01844d299f18d91d6e7d3a895ec5a1" );
      ("n=120 budget abort", 13L, 120, 4, 4, 0., Some 2000, "none");
      ( "n=40 reducible", 14L, 40, 2, 1, 0.2, None,
        "invalid: Sparse.stationary_censor: state 2 has no flow to lower \
         states - the chain is reducible" );
    ]

(* --- the censoring kernel against its reference ---------------------
   [reference_censor] is the kernel as it stood before its working
   storage went flat: one growable (column, value) row per state probed
   by linear scan, a growable predecessor array per column, per-state
   scratch arrays and the unfold as a list per state.  The flat kernel
   must match it bit for bit — pi, fill-budget aborts and reducibility
   messages — on banded chains with random long-range fill. *)

type grow_row = {
  mutable gk : int array;
  mutable gv : float array;
  mutable glen : int;
}

let grow_find r j =
  let rec go i =
    if i >= r.glen then -1 else if r.gk.(i) = j then i else go (i + 1)
  in
  go 0

let grow_push r j v =
  if r.glen = Array.length r.gk then begin
    let cap = max 8 (2 * r.glen) in
    let gk = Array.make cap 0 and gv = Array.make cap 0. in
    Array.blit r.gk 0 gk 0 r.glen;
    Array.blit r.gv 0 gv 0 r.glen;
    r.gk <- gk;
    r.gv <- gv
  end;
  r.gk.(r.glen) <- j;
  r.gv.(r.glen) <- v;
  r.glen <- r.glen + 1

let grow_remove r idx =
  let last = r.glen - 1 in
  r.gk.(idx) <- r.gk.(last);
  r.gv.(idx) <- r.gv.(last);
  r.glen <- last

let sort_pairs (keys : int array) (vals : float array) len =
  for i = 1 to len - 1 do
    let k = keys.(i) and v = vals.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && keys.(!j) > k do
      keys.(!j + 1) <- keys.(!j);
      vals.(!j + 1) <- vals.(!j);
      decr j
    done;
    keys.(!j + 1) <- k;
    vals.(!j + 1) <- v
  done

type grow_ints = { mutable ik : int array; mutable ilen : int }

let ints_push r i =
  if r.ilen = Array.length r.ik then begin
    let cap = max 8 (2 * r.ilen) in
    let ik = Array.make cap 0 in
    Array.blit r.ik 0 ik 0 r.ilen;
    r.ik <- ik
  end;
  r.ik.(r.ilen) <- i;
  r.ilen <- r.ilen + 1

let reference_censor ?fill_budget t =
  let n = Sparse.rows t in
  let fill_budget =
    match fill_budget with Some b -> b | None -> max 200_000 (64 * n)
  in
  if n = 1 then Some [| 1. |]
  else begin
    let rowt = Array.init n (fun _ -> { gk = [||]; gv = [||]; glen = 0 }) in
    let preds = Array.init n (fun _ -> { ik = [||]; ilen = 0 }) in
    let live = ref 0 in
    for i = 0 to n - 1 do
      List.iter
        (fun (j, v) ->
          if i <> j && v > 0. then begin
            grow_push rowt.(i) j v;
            ints_push preds.(j) i;
            incr live
          end)
        (Sparse.row t i)
    done;
    let unfold = Array.make n [] in
    let blown = ref (!live > fill_budget) in
    let k = ref (n - 1) in
    while (not !blown) && !k >= 1 do
      let kk = !k in
      let krow = rowt.(kk) in
      sort_pairs krow.gk krow.gv krow.glen;
      let s = ref 0. in
      for x = 0 to krow.glen - 1 do
        s := !s +. krow.gv.(x)
      done;
      let s = !s in
      if not (s > 0.) then
        invalid_arg
          (Printf.sprintf
             "Sparse.stationary_censor: state %d has no flow to lower \
              states - the chain is reducible"
             kk);
      let pk = preds.(kk) in
      let pis = Array.make pk.ilen 0 and pvs = Array.make pk.ilen 0. in
      let m = ref 0 in
      for x = 0 to pk.ilen - 1 do
        let i = pk.ik.(x) in
        if i < kk then begin
          let idx = grow_find rowt.(i) kk in
          if idx >= 0 then begin
            pis.(!m) <- i;
            pvs.(!m) <- rowt.(i).gv.(idx);
            incr m
          end
        end
      done;
      let m = !m in
      sort_pairs pis pvs m;
      let scaled_col = ref [] in
      for x = m - 1 downto 0 do
        scaled_col := (pis.(x), pvs.(x) /. s) :: !scaled_col
      done;
      unfold.(kk) <- !scaled_col;
      for x = 0 to m - 1 do
        let i = pis.(x) in
        let scaled = pvs.(x) /. s in
        let ri = rowt.(i) in
        let idx = grow_find ri kk in
        if idx >= 0 then begin
          grow_remove ri idx;
          decr live
        end;
        for y = 0 to krow.glen - 1 do
          let j = krow.gk.(y) in
          if i <> j then begin
            let add = scaled *. krow.gv.(y) in
            let jdx = grow_find ri j in
            if jdx >= 0 then ri.gv.(jdx) <- ri.gv.(jdx) +. add
            else begin
              grow_push ri j add;
              ints_push preds.(j) i;
              incr live;
              if !live > fill_budget then blown := true
            end
          end
        done
      done;
      decr k
    done;
    if !blown then None
    else begin
      let pi = Array.make n 0. in
      pi.(0) <- 1.;
      for kk = 1 to n - 1 do
        pi.(kk) <-
          List.fold_left
            (fun acc (i, w) -> acc +. (pi.(i) *. w))
            0. unfold.(kk)
      done;
      Some (Linalg.normalize_l1 pi)
    end
  end

let reference_digest ?fill_budget sp =
  match reference_censor ?fill_budget sp with
  | r -> bits_digest r
  | exception Invalid_argument msg -> "invalid: " ^ msg

let test_reference_on_pins () =
  (* The reference reproduces the pinned C_F bits, so it is the kernel
     the pins were taken from. *)
  List.iter
    (fun (delta, alpha) ->
      let sp = Suffix_chain.build_sparse ~delta ~alpha in
      Alcotest.(check string)
        (Printf.sprintf "delta=%d alpha=%g" delta alpha)
        (reference_digest sp) (censor_digest sp))
    [ (1, 0.3); (7, 0.01); (256, 1e-4); (600, 0.9) ]

(* A random chain and fill budget: n <= 120 keeps the reference's linear
   scans quick on the densest fill.  The budget straddles the initial nnz
   and the peak live count, so runs split between early aborts, aborts
   mid-elimination and full solves; one row in [drop_down] loses its
   downward flow, which makes some chains reducible. *)
let gen_fill_case =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* n = int_range 1 120 in
    let* band = int_range 1 6 in
    let* long = int_range 0 4 in
    let* drop_down = oneofl [ 0.; 0.; 0.02; 0.2 ] in
    let* budget = oneof [ return None; map Option.some (int_range 0 6000) ] in
    return (Int64.of_int seed, n, band, long, drop_down, budget))

let print_fill_case (seed, n, band, long, drop_down, budget) =
  Printf.sprintf "seed=%Ld n=%d band=%d long=%d drop_down=%g budget=%s" seed
    n band long drop_down
    (match budget with Some b -> string_of_int b | None -> "default")

let props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~print:print_fill_case
         ~name:"flat censor = reference kernel, bit for bit" gen_fill_case
         (fun (seed, n, band, long, drop_down, fill_budget) ->
           let sp = fill_chain ~seed ~n ~band ~long ~drop_down in
           censor_digest ?fill_budget sp = reference_digest ?fill_budget sp));
  ]

let suite =
  [
    case "dense -> CSR -> dense round-trip" test_roundtrip;
    case "construction coalesces and sorts" test_create_coalesces;
    case "construction validates" test_create_validates;
    case "mat-vec matches dense on edge shapes" test_mat_vec_edge_shapes;
    case "transpose" test_transpose;
    case "pooled mat-vec is bit-identical across jobs" test_pool_bit_identity;
    case "pool lifecycle" test_pool_lifecycle;
    case "censoring solves the weather chain" test_censor_weather;
    case "censoring matches Eq. 37 on the delta=600 ladder"
      test_censor_ladder_matches_closed_form;
    case "censoring respects its fill budget" test_censor_fill_budget;
    case "censoring rejects reducible and non-square input"
      test_censor_reducible_rejected;
    case "power iteration solves the weather chain" test_power_weather;
    case "power iteration failure message is actionable"
      test_power_nonconvergence_message;
    case "Chain.stationary_sparse and duplicate coalescing"
      test_chain_stationary_sparse;
    case "stationary_auto: dense below the crossover, sparse above"
      test_stationary_auto_crossover;
    case "telemetry spans and the spmv counter" test_telemetry_instrumentation;
    case "pin: C_F censor and auto-route bits" test_pin_suffix_chain;
    case "pin: C_F||P CSR and censor bits" test_pin_conv_chain;
    case "pin: seeded fill-heavy chains" test_pin_fill_chains;
    case "reference kernel reproduces the C_F pins" test_reference_on_pins;
    case "of_slices matches create" test_of_slices_matches_create;
    case "canonical rows are still validated"
      test_canonical_rows_still_validated;
  ]
  @ props
