open Helpers
module Confirmation = Nakamoto_core.Confirmation
module Params = Nakamoto_core.Params

let test_overtake_closed_form () =
  (* ratio 0.4, deficit 3 -> 0.4^4. *)
  close "basic" (0.4 ** 4.)
    (Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.04
       ~deficit:3);
  close "deficit 0 still needs one net block" 0.4
    (Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.04
       ~deficit:0);
  close "stronger attacker is certain" 1.
    (Confirmation.overtake_probability ~honest_rate:0.04 ~adversary_rate:0.1
       ~deficit:5);
  close "equal rates certain" 1.
    (Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.1
       ~deficit:2);
  check_raises_invalid "negative deficit" (fun () ->
      ignore
        (Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.04
           ~deficit:(-1)));
  check_raises_invalid "zero rate" (fun () ->
      ignore
        (Confirmation.overtake_probability ~honest_rate:0. ~adversary_rate:0.1
           ~deficit:1))

let test_bounded_race_converges_to_unbounded () =
  let closed =
    Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.04
      ~deficit:2
  in
  let at g =
    Confirmation.overtake_probability_bounded ~honest_rate:0.1
      ~adversary_rate:0.04 ~deficit:2 ~give_up_behind:g
  in
  check_true "small cutoff underestimates" (at 5 < closed);
  close ~rtol:1e-6 "large cutoff converges" closed (at 80);
  check_true "monotone in cutoff" (at 5 <= at 10 && at 10 <= at 40);
  check_raises_invalid "cutoff must exceed deficit" (fun () ->
      ignore
        (Confirmation.overtake_probability_bounded ~honest_rate:0.1
           ~adversary_rate:0.04 ~deficit:5 ~give_up_behind:5))

let test_nakamoto_formula () =
  (* Known anchors from the Bitcoin whitepaper's q = 0.1 table:
     z=1 -> 0.2045873, z=5 -> 0.0009137, z=10 -> 0.0000012.  The
     whitepaper parameterizes by the attacker share q of total power with
     lambda = z q/p, p = 1-q — our ratio = q/p. *)
  let p_at z =
    Confirmation.nakamoto_double_spend ~ratio:(0.1 /. 0.9) ~confirmations:z
  in
  check_true
    (Printf.sprintf "z=1 near 0.2046 (%.7f)" (p_at 1))
    (Float.abs (p_at 1 -. 0.2045873) < 1e-4);
  check_true
    (Printf.sprintf "z=5 near 0.0009137 (%.7f)" (p_at 5))
    (Float.abs (p_at 5 -. 0.0009137) < 1e-5);
  check_true
    (Printf.sprintf "z=10 near 1.2e-6 (%.3e)" (p_at 10))
    (Float.abs (p_at 10 -. 0.0000012) < 5e-7);
  close "ratio >= 1 is hopeless" 1.
    (Confirmation.nakamoto_double_spend ~ratio:1.2 ~confirmations:50);
  check_raises_invalid "z = 0" (fun () ->
      ignore (Confirmation.nakamoto_double_spend ~ratio:0.3 ~confirmations:0))

(* P(z + 1) <= P(z) wherever P(z + 1) sits above the rounding floor:
   what makes the first depth at or below any epsilon >= 1e-9 the only
   depth where P crosses epsilon. *)
let no_rise ~ratio z =
  let p z = Confirmation.nakamoto_double_spend ~ratio ~confirmations:z in
  let next = p (z + 1) in
  next <= 1e-9 || next <= p z

let test_nakamoto_monotone () =
  List.iter
    (fun ratio ->
      let ok = ref true in
      for z = 1 to 200 do
        if not (no_rise ~ratio z) then ok := false
      done;
      (* Sparser beyond: one adjacent pair every 97 depths up to the
         depth cap. *)
      let z = ref 201 in
      while !z < Confirmation.depth_limit do
        if not (no_rise ~ratio !z) then ok := false;
        z := !z + 97
      done;
      check_true (Printf.sprintf "decreasing in confirmations at %g" ratio) !ok)
    [ 0.1; 0.4; 0.7; 0.9; 0.93; 0.96 ]

(* The linear scan the depth search replaces, kept as its oracle. *)
let linear_scan ~limit ~ratio ~epsilon =
  let rec go z =
    if z > limit then None
    else if Confirmation.nakamoto_double_spend ~ratio ~confirmations:z <= epsilon
    then Some z
    else go (z + 1)
  in
  go 1

let test_search_limit_edges () =
  let ratio = 0.1 /. 0.9 in
  let at limit epsilon =
    Confirmation.confirmations_for ~limit ~ratio ~epsilon ()
  in
  check_true "z* = limit" (at 5 0.001 = Some 5);
  check_true "limit = z* - 1" (at 4 0.001 = None);
  check_true "limit 1, P(1) above epsilon" (at 1 0.001 = None);
  check_true "limit 1, P(1) at or below epsilon" (at 1 0.5 = Some 1);
  check_true "default limit is the depth cap"
    (Confirmation.confirmations_for ~ratio:0.97 ~epsilon:1e-3 () = None
    && Confirmation.confirmations_for ~limit:(Confirmation.depth_limit + 1)
         ~ratio:0.9 ~epsilon:1e-3 ()
       = Confirmation.confirmations_for ~ratio:0.9 ~epsilon:1e-3 ())

let test_confirmations_for () =
  let z =
    match Confirmation.confirmations_for ~ratio:(0.1 /. 0.9) ~epsilon:0.001 () with
    | Some z -> z
    | None -> Alcotest.fail "q=0.1 must settle"
  in
  (* The whitepaper's "solving for P < 0.1%" table: q=0.1 -> z=5. *)
  check_int "whitepaper q=0.1 row" 5 z;
  (* z is the first depth at or below epsilon. *)
  check_true "z achieves epsilon"
    (Confirmation.nakamoto_double_spend ~ratio:(0.1 /. 0.9) ~confirmations:z
    <= 0.001);
  check_true "z-1 does not"
    (z = 1
    || Confirmation.nakamoto_double_spend ~ratio:(0.1 /. 0.9)
         ~confirmations:(z - 1)
       > 0.001);
  (* An exhausted search limit is an answer, not a crash. *)
  check_true "limit exhaustion is None"
    (Confirmation.confirmations_for ~limit:3 ~ratio:0.9 ~epsilon:1e-9 () = None);
  check_true "a ratio near 1 is unsettleable"
    (Confirmation.confirmations_for ~limit:2000 ~ratio:0.999 ~epsilon:1e-6 ()
    = None);
  check_raises_invalid "epsilon range" (fun () ->
      ignore (Confirmation.confirmations_for ~ratio:0.3 ~epsilon:0. ()));
  check_raises_invalid "limit range" (fun () ->
      ignore (Confirmation.confirmations_for ~limit:0 ~ratio:0.3 ~epsilon:0.1 ()))

let test_assess () =
  let p = Params.of_c ~n:1e5 ~delta:10. ~nu:0.2 ~c:6. in
  let a = Confirmation.assess p in
  check_true "ratio < 1 inside the region" (a.rate_ratio < 1.);
  check_true "risk below default epsilon" (a.residual_risk <= 1e-3);
  check_true "confirmations grow with nu"
    ((Confirmation.assess (Params.of_c ~n:1e5 ~delta:10. ~nu:0.3 ~c:6.)).confirmations
    > a.confirmations);
  check_true "stricter epsilon needs more"
    ((Confirmation.assess ~epsilon:1e-6 p).confirmations > a.confirmations);
  check_raises_invalid "nu = 0" (fun () ->
      ignore (Confirmation.assess (Params.of_c ~n:1e5 ~delta:10. ~nu:0. ~c:6.)));
  check_raises_invalid "outside the consistency region" (fun () ->
      ignore (Confirmation.assess (Params.of_c ~n:1e5 ~delta:10. ~nu:0.45 ~c:0.5)))

let test_table_rendering () =
  let a = Confirmation.assess (Params.of_c ~n:1e5 ~delta:10. ~nu:0.1 ~c:6.) in
  let t = Confirmation.to_table [ a ] in
  check_int "one row" 1 (Nakamoto_numerics.Table.row_count t)

(* ratio in (0, hi], epsilon log-uniform in [1e-9, 0.5]. *)
let ratio_upto hi =
  QCheck2.Gen.map (fun u -> hi *. (1. -. u)) (QCheck2.Gen.float_bound_exclusive 1.)

let epsilon_gen =
  QCheck2.Gen.map
    (fun e -> 10. ** e)
    (QCheck2.Gen.float_range (-9.) (Float.log10 0.5))

let props =
  [
    prop "depth search equals the linear scan"
      QCheck2.Gen.(
        triple (ratio_upto 0.93) epsilon_gen
          (map
             (fun e -> max 1 (min 10_000 (int_of_float (10. ** e))))
             (float_range 0. 4.)))
      (fun (ratio, epsilon, limit) ->
        Confirmation.confirmations_for ~limit ~ratio ~epsilon ()
        = linear_scan ~limit ~ratio ~epsilon);
    prop "depth search limit edges"
      QCheck2.Gen.(pair (ratio_upto 0.93) epsilon_gen)
      (fun (ratio, epsilon) ->
        let at limit = Confirmation.confirmations_for ~limit ~ratio ~epsilon () in
        let p z = Confirmation.nakamoto_double_spend ~ratio ~confirmations:z in
        (at 1 = if p 1 <= epsilon then Some 1 else None)
        &&
        match at Confirmation.depth_limit with
        | None -> p Confirmation.depth_limit > epsilon
        | Some z ->
          p z <= epsilon
          && (z = 1 || (p (z - 1) > epsilon && at (z - 1) = None))
          && at z = Some z);
    prop ~count:300 "double-spend probability never rises above 1e-9"
      QCheck2.Gen.(pair (ratio_upto 0.96) (int_range 1 Confirmation.depth_limit))
      (fun (ratio, z) -> no_rise ~ratio z);
    prop "overtake decreasing in deficit"
      QCheck2.Gen.(pair (float_range 0.1 0.9) (int_range 0 20))
      (fun (ratio, deficit) ->
        let h = 0.1 in
        let a = h *. ratio in
        Confirmation.overtake_probability ~honest_rate:h ~adversary_rate:a
          ~deficit:(deficit + 1)
        <= Confirmation.overtake_probability ~honest_rate:h ~adversary_rate:a
             ~deficit
           +. 1e-12);
    prop ~count:50 "bounded race matches closed form at large cutoff"
      QCheck2.Gen.(pair (float_range 0.1 0.7) (int_range 0 4))
      (fun (ratio, deficit) ->
        let h = 0.1 in
        let a = h *. ratio in
        let closed =
          Confirmation.overtake_probability ~honest_rate:h ~adversary_rate:a
            ~deficit
        in
        let bounded =
          Confirmation.overtake_probability_bounded ~honest_rate:h
            ~adversary_rate:a ~deficit ~give_up_behind:120
        in
        Float.abs (closed -. bounded) < 1e-5);
  ]

let suite =
  [
    case "overtake closed form" test_overtake_closed_form;
    case "bounded race converges" test_bounded_race_converges_to_unbounded;
    case "Nakamoto formula anchors" test_nakamoto_formula;
    case "Nakamoto monotone" test_nakamoto_monotone;
    case "confirmations_for" test_confirmations_for;
    case "search limit edges" test_search_limit_edges;
    case "assess" test_assess;
    case "table rendering" test_table_rendering;
  ]
  @ props
