open Helpers
module Chain = Nakamoto_markov.Chain

(* A simple two-state weather chain with known stationary (0.625, 0.375). *)
let weather =
  Chain.create ~size:2
    ~rows:[| [ (0, 0.7); (1, 0.3) ]; [ (0, 0.5); (1, 0.5) ] |]
    ()

(* A 3-cycle: periodic, irreducible. *)
let three_cycle =
  Chain.create ~size:3 ~rows:[| [ (1, 1.) ]; [ (2, 1.) ]; [ (0, 1.) ] |] ()

let test_create_validation () =
  check_raises_invalid "row sum" (fun () ->
      ignore (Chain.create ~size:1 ~rows:[| [ (0, 0.5) ] |] ()));
  check_raises_invalid "bad target" (fun () ->
      ignore (Chain.create ~size:1 ~rows:[| [ (3, 1.) ] |] ()));
  check_raises_invalid "negative probability" (fun () ->
      ignore (Chain.create ~size:1 ~rows:[| [ (0, -0.5); (0, 1.5) ] |] ()));
  check_raises_invalid "size mismatch" (fun () ->
      ignore (Chain.create ~size:2 ~rows:[| [ (0, 1.) ] |] ()));
  check_raises_invalid "size zero" (fun () ->
      ignore (Chain.create ~size:0 ~rows:[||] ()))

let test_accessors () =
  check_int "size" 2 (Chain.size weather);
  close "probability" 0.3 (Chain.probability weather ~src:0 ~dst:1);
  close "missing edge" 0. (Chain.probability three_cycle ~src:0 ~dst:0);
  Alcotest.(check string) "default label" "1" (Chain.label weather 1);
  check_int "row arity" 2 (List.length (Chain.row weather 0))

let test_structure_queries () =
  check_true "weather irreducible" (Chain.is_irreducible weather);
  check_true "weather ergodic" (Chain.is_ergodic weather);
  check_true "cycle irreducible" (Chain.is_irreducible three_cycle);
  check_int "cycle period 3" 3 (Chain.period three_cycle);
  check_false "cycle not ergodic" (Chain.is_ergodic three_cycle);
  let reducible =
    Chain.create ~size:2 ~rows:[| [ (0, 1.) ]; [ (0, 1.) ] |] ()
  in
  check_false "absorbing not irreducible" (Chain.is_irreducible reducible)

let test_step_distribution () =
  let d = Chain.step_distribution weather [| 1.; 0. |] in
  close "step [0]" 0.7 d.(0);
  close "step [1]" 0.3 d.(1);
  check_raises_invalid "wrong size" (fun () ->
      ignore (Chain.step_distribution weather [| 1. |]))

let test_stationary_both_ways () =
  let p = Chain.stationary_power_iteration weather in
  let s = Chain.stationary_linear_solve weather in
  close "power [0]" 0.625 p.(0);
  close "power [1]" 0.375 p.(1);
  close "solve [0]" 0.625 s.(0);
  close "solve [1]" 0.375 s.(1);
  (* Stationary of the cycle is uniform (power iteration from uniform is
     already exact despite periodicity; linear solve is unconditional). *)
  let cs = Chain.stationary_linear_solve three_cycle in
  Array.iter (fun x -> close "uniform" (1. /. 3.) x) cs

let test_stationary_is_fixed_point () =
  let s = Chain.stationary_linear_solve weather in
  let s' = Chain.step_distribution weather s in
  close "fixed point [0]" s.(0) s'.(0);
  close "fixed point [1]" s.(1) s'.(1)

let test_total_variation () =
  close "tv" 0.3 (Chain.total_variation [| 0.5; 0.5 |] [| 0.2; 0.8 |]);
  close "tv self" 0. (Chain.total_variation [| 1.; 0. |] [| 1.; 0. |]);
  check_raises_invalid "length mismatch" (fun () ->
      ignore (Chain.total_variation [| 1. |] [| 0.5; 0.5 |]))

let test_mixing_time () =
  (match Chain.mixing_time weather with
  | Some s -> check_true "weather mixes quickly" (s <= 10)
  | None -> Alcotest.fail "weather must mix");
  (* The 3-cycle never mixes (periodic). *)
  check_true "cycle does not mix"
    (Chain.mixing_time ~horizon:100 three_cycle = None)

let test_simulate () =
  let g = rng () in
  let traj = Chain.simulate ~rng:g weather ~start:0 ~steps:10_000 in
  check_int "length" 10_000 (Array.length traj);
  Array.iter (fun s -> check_true "state in range" (s = 0 || s = 1)) traj;
  let ones = Array.fold_left (fun acc s -> acc + s) 0 traj in
  let frac = float_of_int ones /. 10_000. in
  check_true
    (Printf.sprintf "occupancy near stationary (%.3f)" frac)
    (Float.abs (frac -. 0.375) < 0.02);
  check_true "zero steps" (Chain.simulate ~rng:g weather ~start:0 ~steps:0 = [||]);
  check_raises_invalid "bad start" (fun () ->
      ignore (Chain.simulate ~rng:g weather ~start:9 ~steps:1))

let test_occupancy () =
  let g = rng () in
  let visits =
    Chain.occupancy ~rng:g weather ~start:0 ~steps:20_000 ~target:(fun s -> s = 1)
  in
  check_true "occupancy matches T pi(target)"
    (Float.abs (float_of_int visits -. (20_000. *. 0.375)) < 500.)

let test_power_iteration_nonconvergence_message () =
  (* A sticky asymmetric chain (second eigenvalue 0.97, stationary away
     from the uniform start) cannot meet tol 1e-14 in 50 iterations.
     The failure must report the iteration budget, the tolerance and
     the last L1 residual — not just "did not converge". *)
  let sticky =
    Chain.create ~size:2
      ~rows:[| [ (0, 0.99); (1, 0.01) ]; [ (0, 0.02); (1, 0.98) ] |]
      ()
  in
  match Chain.stationary_power_iteration ~tol:1e-14 ~max_iter:50 sticky with
  | _ -> Alcotest.fail "expected non-convergence at max_iter:50"
  | exception Failure msg ->
    List.iter
      (fun affix ->
        check_true
          (Printf.sprintf "message mentions %s" affix)
          (contains_substring ~affix msg))
      [ "50 iterations"; "tol 1e-14"; "residual" ]

let props =
  let gen_chain =
    (* Random dense stochastic matrices of size 2..6. *)
    QCheck2.Gen.(
      let* n = int_range 2 6 in
      let* raw = list_size (return (n * n)) (float_range 0.05 1.) in
      let rows =
        Array.init n (fun i ->
            let row = List.filteri (fun k _ -> k / n = i) raw in
            let total = List.fold_left ( +. ) 0. row in
            List.mapi (fun j x -> (j, x /. total)) row)
      in
      return (n, rows))
  in
  [
    prop ~count:50 "solve and power iteration agree" gen_chain (fun (n, rows) ->
        let c = Chain.create ~size:n ~rows () in
        let a = Chain.stationary_linear_solve c in
        let b = Chain.stationary_power_iteration c in
        Chain.total_variation a b < 1e-9);
    prop ~count:50 "stationary sums to 1 and is a fixed point" gen_chain
      (fun (n, rows) ->
        let c = Chain.create ~size:n ~rows () in
        let s = Chain.stationary_linear_solve c in
        let total = Array.fold_left ( +. ) 0. s in
        let s' = Chain.step_distribution c s in
        Float.abs (total -. 1.) < 1e-9 && Chain.total_variation s s' < 1e-10);
    prop ~count:50 "dense positive chains are ergodic" gen_chain
      (fun (n, rows) -> Chain.is_ergodic (Chain.create ~size:n ~rows ()));
  ]

(* Rows keep the order and the entries they were given: duplicates are
   summed by [probability] and coalesced only on the way into CSR. *)
let test_rows_kept_as_given () =
  let rows = [| [ (1, 0.3); (0, 0.2); (1, 0.5) ]; [ (0, 1.) ] |] in
  let c = Chain.create ~size:2 ~rows () in
  check_true "row 0 as given" (Chain.row c 0 = rows.(0));
  close "duplicates summed" 0.8 (Chain.probability c ~src:0 ~dst:1);
  check_true "CSR row coalesced and sorted"
    (Nakamoto_markov.Sparse.row (Chain.to_sparse c) 0
    = [ (0, 0.2); (1, 0.3 +. 0.5) ]);
  let from_fn = Chain.of_fn ~size:2 (fun i -> rows.(i)) in
  check_true "of_fn = create"
    (Chain.row from_fn 0 = Chain.row c 0
    && Chain.row from_fn 1 = Chain.row c 1);
  check_raises_invalid "of_fn validates" (fun () ->
      ignore (Chain.of_fn ~size:2 (fun _ -> [ (2, 1.) ])))

(* [simulate] draws by inverse CDF over each row in its stored order —
   checked against a sampler over [row]'s list on the suffix chain, whose
   Deep row is stored H-first (not in column order). *)
let test_simulate_stored_order () =
  let c = Nakamoto_core.Suffix_chain.build ~delta:3 ~alpha:0.4 in
  let reference g ~start ~steps =
    let current = ref start in
    Array.init steps (fun _ ->
        let row = Array.of_list (Chain.row c !current) in
        let u = Nakamoto_prob.Rng.float g in
        let n = Array.length row in
        let rec pick i acc =
          if i >= n - 1 then fst row.(n - 1)
          else
            let j, p = row.(i) in
            if u < acc +. p then j else pick (i + 1) (acc +. p)
        in
        current := pick 0 0.;
        !current)
  in
  let expected = reference (rng ~seed:5L ()) ~start:3 ~steps:2000 in
  let got = Chain.simulate ~rng:(rng ~seed:5L ()) c ~start:3 ~steps:2000 in
  check_true "same trajectory" (expected = got)

let suite =
  [
    case "create validation" test_create_validation;
    case "accessors" test_accessors;
    case "structure queries" test_structure_queries;
    case "step distribution" test_step_distribution;
    case "stationary both ways" test_stationary_both_ways;
    case "stationary is fixed point" test_stationary_is_fixed_point;
    case "total variation" test_total_variation;
    case "mixing time" test_mixing_time;
    case "simulate" test_simulate;
    case "occupancy" test_occupancy;
    case "power iteration non-convergence message"
      test_power_iteration_nonconvergence_message;
  ]
  @ props
  @ [
      case "rows kept as given" test_rows_kept_as_given;
      case "simulate draws in stored order" test_simulate_stored_order;
    ]
