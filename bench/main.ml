(* Benchmark and regeneration harness.

   Part 1 regenerates every table and figure of the paper (and the
   extension experiments documented in DESIGN.md), printing the same
   rows/series the paper reports.  Part 2 times the generators and the
   substrate hot paths with Bechamel — one Test.make per artifact. *)

module Core = Nakamoto_core
module Sim = Nakamoto_sim
module Markov = Nakamoto_markov
module Prob = Nakamoto_prob
module Campaign = Nakamoto_campaign
module Table = Nakamoto_numerics.Table

let section name = Printf.printf "\n########## %s ##########\n\n" name

(* With `--csv DIR` on the command line, every table is also written to
   DIR/<slug>.csv for external plotting. *)
let csv_dir =
  let rec scan = function
    | "--csv" :: dir :: _ -> Some dir
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let table_counter = ref 0

let print_table t =
  print_string (Table.render t);
  match csv_dir with
  | None -> ()
  | Some dir ->
    incr table_counter;
    let path = Filename.concat dir (Printf.sprintf "table_%02d.csv" !table_counter) in
    Table.save_csv t ~path;
    Printf.printf "(csv: %s)\n" path

(* ------------------------------------------------------------------ *)
(* FIG1: Figure 1 series                                               *)
(* ------------------------------------------------------------------ *)

let regen_fig1 () =
  section "FIG1: Figure 1 - tolerable nu vs c (n=1e5, Delta=1e13)";
  let rows = Core.Figure1.series ~c_grid:(Core.Figure1.default_c_grid ()) () in
  print_table (Core.Figure1.to_table rows);
  print_newline ();
  print_string (Core.Figure1.to_plot rows);
  Printf.printf "shape invariants (ours >= PSS, attack >= ours, monotone): %b\n"
    (Core.Figure1.shape_invariants_hold rows);
  (* Interval-arithmetic certification: prove that every plotted point of
     the magenta curve brackets the true nu_max to within 1e-9. *)
  let certified =
    List.length
      (List.filter
         (fun (r : Core.Figure1.row) ->
           Core.Certify.certify_neat_numax ~c:r.c () <> None)
         rows)
  in
  Printf.printf
    "ours-curve points certified to +-1e-9 by interval arithmetic: %d / %d\n"
    certified (List.length rows)

(* ------------------------------------------------------------------ *)
(* FIG2: suffix chain census + DOT                                     *)
(* ------------------------------------------------------------------ *)

let regen_fig2 () =
  section "FIG2: Figure 2 - suffix chain C_F structure";
  let censuses =
    List.map (fun d -> Core.Figure2.census ~delta:d ~alpha:0.2) [ 2; 3; 4; 8; 16 ]
  in
  print_table (Core.Figure2.to_table censuses);
  Printf.printf "\nDOT rendering for Delta = 2:\n%s"
    (Core.Figure2.dot ~delta:2 ~alpha:0.2)

(* ------------------------------------------------------------------ *)
(* TAB1: Table I with values                                           *)
(* ------------------------------------------------------------------ *)

let regen_tab1 () =
  section "TAB1: Table I - notation with computed values";
  let fig1_point = Core.Params.figure1_point ~nu:0.25 ~c:3. in
  print_table (Core.Table1.for_params fig1_point);
  Printf.printf "identities hold: %b\n\n" (Core.Table1.identities_hold fig1_point);
  print_table (Core.Table1.for_params Core.Params.bitcoin_like);
  Printf.printf "identities hold: %b\n"
    (Core.Table1.identities_hold Core.Params.bitcoin_like)

(* ------------------------------------------------------------------ *)
(* RMK1: Remark 1 regimes                                              *)
(* ------------------------------------------------------------------ *)

let regen_rmk1 () =
  section "RMK1: Remark 1 - (delta1, delta2) regimes at Delta = 1e13";
  let t =
    Table.create
      ~title:
        "Remark 1 (paper: [1e-63, 0.5-1e-7] x 1+5e-5; [1e-18, 0.5-1e-9] x 1+2e-3)"
      ~columns:[ "delta1"; "delta2"; "nu lower"; "1/2 - nu upper"; "inflation - 1" ]
  in
  List.iter
    (fun (r : Core.Theorem2.regime) ->
      Table.add_row t
        [
          Table.Float r.delta1; Table.Float r.delta2; Table.Log10 r.log_nu_lo;
          Table.Sci r.half_minus_nu_hi; Table.Sci (r.inflation -. 1.);
        ])
    (Core.Theorem2.remark1_rows ());
  print_table t

(* ------------------------------------------------------------------ *)
(* EQ37: closed form vs numeric stationary (ablation #2)               *)
(* ------------------------------------------------------------------ *)

let regen_eq37 () =
  section "EQ37: stationary distribution of C_F - closed form vs solves";
  let t =
    Table.create ~title:"Eq. 37 vs linear solve vs power iteration"
      ~columns:[ "Delta"; "alpha"; "|closed-solve|"; "|closed-power|"; "sum-1" ]
  in
  List.iter
    (fun (delta, alpha) ->
      let chain = Core.Suffix_chain.build ~delta ~alpha in
      let closed = Core.Suffix_chain.stationary_closed_form ~delta ~alpha in
      let solve = Markov.Chain.stationary_linear_solve chain in
      let power = Markov.Chain.stationary_power_iteration chain in
      let err a b =
        let m = ref 0. in
        Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
        !m
      in
      Table.add_row t
        [
          Table.Int delta; Table.Float alpha; Table.Sci (err closed solve);
          Table.Sci (err closed power);
          Table.Sci (Array.fold_left ( +. ) (-1.) closed);
        ])
    [ (2, 0.5); (5, 0.23); (10, 0.04); (50, 0.1); (200, 0.02) ];
  print_table t

(* ------------------------------------------------------------------ *)
(* EQ44: convergence-opportunity rate, three ways                      *)
(* ------------------------------------------------------------------ *)

let regen_eq44 () =
  section
    "EQ44: pi(HN>=D || H1 N^D) = abar^2D alpha1 - theory vs chain vs simulation";
  let t =
    Table.create ~title:"Eq. 44 cross-validation (1e6 simulated rounds per row)"
      ~columns:
        [ "Delta"; "closed form"; "explicit chain"; "Monte Carlo"; "MC 95% lo";
          "MC 95% hi"; "theory inside CI" ]
  in
  List.iter
    (fun delta ->
      let params =
        Core.Params.create ~n:50. ~delta:(float_of_int delta) ~p:0.01 ~nu:0.2
      in
      let closed = Core.Conv_chain.convergence_rate params in
      let explicit = Core.Conv_chain.build_explicit ~delta params in
      let pi = Markov.Chain.stationary_linear_solve explicit.chain in
      let rounds = 1_000_000 in
      let run =
        Sim.State_process.run
          ~rng:(Prob.Rng.create ~seed:(Int64.of_int (1000 + delta)))
          { Sim.State_process.honest = 40; adversarial = 10; p = 0.01; delta }
          ~rounds
      in
      let lo, hi =
        Prob.Stats.wilson_interval ~hits:run.convergence_opportunities
          ~trials:rounds
      in
      Table.add_row t
        [
          Table.Int delta; Table.Sci closed;
          Table.Sci pi.(explicit.convergence_state);
          Table.Sci
            (float_of_int run.convergence_opportunities /. float_of_int rounds);
          Table.Sci lo; Table.Sci hi;
          Table.Text
            (if closed >= lo -. 1e-4 && closed <= hi +. 1e-4 then "yes" else "NO");
        ])
    [ 1; 2; 3 ];
  print_table t

(* ------------------------------------------------------------------ *)
(* THM1: exact region converging to the neat bound (ablation #4)       *)
(* ------------------------------------------------------------------ *)

let regen_thm1 () =
  section "THM1: exact Theorem 1 nu_max -> neat bound as n, Delta grow";
  let c = 2.0 in
  let neat = Core.Bounds.neat_numax ~c in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "nu_max under Ineq. 10 at c = %g (neat limit %.6f)" c neat)
      ~columns:[ "n"; "Delta"; "Thm1 exact"; "Thm2 exact"; "neat - Thm1" ]
  in
  List.iter
    (fun (n, delta) ->
      let thm1 = Core.Bounds.theorem1_numax ~n ~delta ~c () in
      let thm2 = Core.Bounds.theorem2_numax ~delta ~eps2:1e-9 ~c in
      Table.add_row t
        [
          Table.Float n; Table.Float delta; Table.Float thm1; Table.Float thm2;
          Table.Sci (neat -. thm1);
        ])
    [ (10., 4.); (40., 4.); (100., 10.); (1e3, 1e3); (1e4, 1e4); (1e5, 1e13) ];
  print_table t;
  print_newline ();
  (* Designer view of the same curve: the marginal value of c. *)
  print_table
    (Core.Sensitivity.marginal_value_table
       ~c_grid:[ 0.5; 1.; 2.; 4.; 8.; 16.; 64. ])

(* ------------------------------------------------------------------ *)
(* LEM: the implication chain audit                                    *)
(* ------------------------------------------------------------------ *)

let regen_lem () =
  section "LEM: Lemmas 2-8 implication chain (52)-(59)";
  let t =
    Table.create ~title:"verify_chain at points satisfying Ineqs. 50-51"
      ~columns:[ "nu"; "Delta"; "n"; "eps1"; "eps2"; "c"; "all steps hold" ]
  in
  List.iter
    (fun (nu, delta, n, eps1, eps2) ->
      let c = Core.Bounds.theorem2_c_min ~nu ~delta ~eps1 ~eps2 *. 1.000001 in
      let p = Core.Params.of_c ~n ~delta ~nu ~c in
      let r = Core.Lemmas.verify_chain ~eps1 ~eps2 p in
      Table.add_row t
        [
          Table.Float nu; Table.Float delta; Table.Float n; Table.Float eps1;
          Table.Float eps2; Table.Float c;
          Table.Text (string_of_bool r.all_hold);
        ])
    [
      (0.25, 1e13, 1e5, 0.5, 0.1); (0.4, 1e2, 1e3, 0.3, 0.01);
      (0.1, 1e6, 1e5, 0.7, 1.0); (0.49, 1e4, 1e6, 0.2, 0.5);
      (0.01, 10., 100., 0.9, 0.001);
    ];
  print_table t

(* ------------------------------------------------------------------ *)
(* ATK: simulated consistency on both sides of the theory              *)
(* ------------------------------------------------------------------ *)

let scenario_row name cfg =
  let r = Sim.Execution.run cfg in
  let cons = Sim.Metrics.check_consistency r in
  let growth = Sim.Metrics.chain_growth r in
  [
    Table.Text name; Table.Float (Sim.Config.c cfg);
    Table.Float cfg.Sim.Config.nu; Table.Int r.honest_blocks;
    Table.Int r.adversary_blocks; Table.Int r.convergence_opportunities;
    Table.Int r.max_reorg_depth;
    Table.Text (Printf.sprintf "%d/%d" cons.violations cons.pairs_checked);
    Table.Float growth.growth_rate;
    Table.Float (Sim.Metrics.chain_quality r);
  ]

let regen_atk () =
  section "ATK: the PSS Remark 8.5 attack, simulated (Delta-delay protocol)";
  let t =
    Table.create
      ~title:
        "Consistency above vs below the bounds (expect: violations only in the attack zone)"
      ~columns:
        [ "scenario"; "c"; "nu"; "honest"; "adv"; "conv opps"; "max reorg";
          "violations(T)"; "growth"; "quality" ]
  in
  Table.add_row t (scenario_row "honest" (Sim.Scenarios.honest_baseline ~seed:2025L));
  Table.add_row t
    (scenario_row "safe nu=.25" (Sim.Scenarios.safe_zone ~seed:2025L ~nu:0.25));
  Table.add_row t
    (scenario_row "safe nu=.33" (Sim.Scenarios.safe_zone ~seed:2025L ~nu:0.33));
  Table.add_row t
    (scenario_row "attack nu=.30" (Sim.Scenarios.attack_zone ~seed:2025L ~nu:0.30));
  Table.add_row t
    (scenario_row "attack nu=.40" (Sim.Scenarios.attack_zone ~seed:2025L ~nu:0.40));
  Table.add_row t (scenario_row "split world" (Sim.Scenarios.split_world ~seed:2025L));
  print_table t

(* ------------------------------------------------------------------ *)
(* PHASE: simulated (c, nu) phase diagram vs the analytic regions      *)
(* ------------------------------------------------------------------ *)

let regen_phase () =
  section "PHASE: deep-reorg successes across the (c, nu) plane vs analytic regions";
  let cs = [ 0.25; 0.5; 1.; 2.; 4. ] in
  let nus = [ 0.15; 0.25; 0.35; 0.45 ] in
  let t =
    Table.create
      ~title:
        "cells: successful 12-deep reorgs in 6000 rounds | analytic region \
         (SAFE = above 2mu/ln(mu/nu), ATTACK = below the PSS attack line, \
         GAP between).  Consistency is exponential in T, so SAFE cells may \
         show a stray success near the boundary but never a stream of them."
      ~columns:("nu \\ c" :: List.map (Printf.sprintf "%g") cs)
  in
  List.iter
    (fun nu ->
      let cells =
        List.map
          (fun c ->
            let cfg = Sim.Scenarios.at_c ~seed:4242L ~nu ~c ~rounds:6000 in
            let r = Sim.Execution.run cfg in
            let region =
              if c > Core.Bounds.neat_c_min ~nu then "SAFE"
              else if nu > Core.Bounds.pss_attack_nu ~c then "ATTACK"
              else "GAP"
            in
            Table.Text (Printf.sprintf "%d | %s" r.adversary_releases region))
          cs
      in
      Table.add_row t (Table.Float nu :: cells))
    nus;
  print_table t

(* ------------------------------------------------------------------ *)
(* GAP: probing the open region with every implemented adversary       *)
(* ------------------------------------------------------------------ *)

let regen_gap () =
  section
    "GAP: probing the region between our bound and the PSS attack line";
  (* The paper's conclusion names this gap as the open question.  We pit
     every implemented adversary against points inside it (each with its
     own worst delay policy) and report the deepest consistency damage
     achieved - an empirical lower bound on what the region tolerates. *)
  let t =
    Table.create
      ~title:
        "max reorg depth / releases over 8000 rounds per strategy (nu, c inside the gap)"
      ~columns:
        [ "nu"; "c"; "private-chain"; "balance"; "selfish+delay";
          "sensitivity d nu/d c" ]
  in
  List.iter
    (fun (nu, c) ->
      let run strategy delay_override tie_break =
        let cfg =
          Sim.Config.with_c
            {
              Sim.Config.default with
              nu;
              rounds = 8000;
              seed = 1234L;
              strategy;
              truncate = 6;
              snapshot_interval = 400;
              delay_override;
              tie_break;
            }
            ~c
        in
        let r = Sim.Execution.run cfg in
        Printf.sprintf "%d / %d" r.max_reorg_depth r.adversary_releases
      in
      let boundary = Nakamoto_chain.Block_tree.Prefer_honest in
      Table.add_row t
        [
          Table.Float nu; Table.Float c;
          Table.Text
            (run (Sim.Adversary.Private_chain { reorg_target = 8 }) None boundary);
          Table.Text
            (run (Sim.Adversary.Balance { group_boundary = 15 }) None boundary);
          Table.Text
            (run Sim.Adversary.Selfish_mining
               (Some (Nakamoto_net.Network.Fixed 2))
               Nakamoto_chain.Block_tree.First_seen);
          Table.Float (Core.Sensitivity.numax_slope ~c);
        ])
    [ (0.2, 0.45); (0.3, 1.2); (0.4, 2.2) ];
  print_table t;
  print_endline
    "(cells: deepest reorg / successful deep releases; the gap is where \
     damage is real but bounded - neither the safe zone's silence nor the \
     attack zone's collapse)"

(* ------------------------------------------------------------------ *)
(* SCALE: behaviour depends on c, not on n and Delta separately        *)
(* ------------------------------------------------------------------ *)

let regen_scale () =
  section "SCALE: c-invariance - the substitution argument of DESIGN.md, measured";
  (* Fix c on both sides of the theory and vary (n, Delta) by an order of
     magnitude each: the attack's success rate and the safe zone's
     cleanliness must depend on c alone (up to small-system corrections). *)
  let t =
    Table.create
      ~title:
        "deep-reorg successes per 4000 rounds at fixed c across system scales"
      ~columns:
        [ "n"; "Delta"; "attack c=0.26 nu=.3"; "safe c=4.1 nu=.25" ]
  in
  List.iter
    (fun (n, delta) ->
      let run ~nu ~c =
        let cfg =
          Sim.Config.with_c
            {
              Sim.Config.default with
              n;
              delta;
              nu;
              rounds = 4000;
              seed = 31L;
              strategy = Sim.Adversary.Private_chain { reorg_target = 12 };
              truncate = 6;
              snapshot_interval = 400;
            }
            ~c
        in
        (Sim.Execution.run cfg).adversary_releases
      in
      Table.add_row t
        [
          Table.Int n; Table.Int delta;
          Table.Int (run ~nu:0.3 ~c:0.2625);
          Table.Int (run ~nu:0.25 ~c:4.1);
        ])
    [ (20, 2); (40, 4); (100, 8); (200, 16) ];
  print_table t;
  print_endline
    "(attack-zone success counts stay an order of magnitude above the safe \
     zone's at every scale: c is the governing dimension)"

(* ------------------------------------------------------------------ *)
(* CONC: concentration (Ineqs. 19-20) empirically vs bounds            *)
(* ------------------------------------------------------------------ *)

let regen_conc () =
  section "CONC: concentration of C and A over windows (Ineqs. 19-20, 47, 49)";
  let cfg = { Sim.State_process.honest = 40; adversarial = 10; p = 0.01; delta = 3 } in
  let params = Core.Params.create ~n:50. ~delta:3. ~p:0.01 ~nu:0.2 in
  let t =
    Table.create
      ~title:"Empirical tail frequencies over 400 windows (delta2 = delta3 = 0.2)"
      ~columns:
        [ "window T"; "P[C <= 0.8 E C] emp"; "P[A >= 1.2 E A] emp";
          "Ineq.49 bound on A-tail" ]
  in
  List.iter
    (fun window_length ->
      let windows = 400 in
      let w =
        Sim.State_process.window_counts
          ~rng:(Prob.Rng.create ~seed:99L)
          cfg ~windows ~window_length
      in
      let e_c =
        Core.Conv_chain.expected_convergence_count params ~horizon:window_length
      in
      let e_a =
        Core.Conv_chain.expected_adversary_blocks params ~horizon:window_length
      in
      let frac pred =
        float_of_int
          (Array.fold_left (fun acc x -> if pred x then acc + 1 else acc) 0 w)
        /. float_of_int windows
      in
      let c_tail = frac (fun (c, _) -> float_of_int c <= 0.8 *. e_c) in
      let a_tail = frac (fun (_, a) -> float_of_int a >= 1.2 *. e_a) in
      let a_bound =
        Prob.Tail_bounds.binomial_upper_tail
          (Prob.Binomial.create ~trials:(window_length * 10) ~p:0.01)
          ~delta:0.2
      in
      Table.add_row t
        [
          Table.Int window_length; Table.Float c_tail; Table.Float a_tail;
          Table.Sci a_bound;
        ])
    [ 200; 800; 3200; 12800 ];
  print_table t;
  print_endline
    "(both empirical tails must decay toward 0 as T grows; the A-tail must stay below the bound)"

(* ------------------------------------------------------------------ *)
(* DECAY: P[reorg deeper than T] decays exponentially in T             *)
(* ------------------------------------------------------------------ *)

let regen_decay () =
  section "DECAY: consistency failure probability vs T (Definition 1's 'overwhelming in T')";
  (* Many independent medium-length executions just above the bound; the
     fraction with a reorg deeper than T must fall off exponentially. *)
  let nu = 0.3 in
  let runs = 60 in
  let cfg seed =
    {
      (Sim.Scenarios.at_c ~seed ~nu
         ~c:(1.2 *. Core.Bounds.neat_c_min ~nu)
         ~rounds:3000)
      with
      Sim.Config.strategy = Sim.Adversary.Private_chain { reorg_target = 1 };
    }
  in
  let depths =
    List.init runs (fun i ->
        (Sim.Execution.run (cfg (Int64.of_int (7000 + i)))).max_reorg_depth)
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "fraction of %d runs (3000 rounds, nu=%.2f, c=1.2x bound) with max reorg > T"
           runs nu)
      ~columns:[ "T"; "P[max reorg > T] empirical"; "runs exceeding" ]
  in
  List.iter
    (fun threshold ->
      let exceeding = List.length (List.filter (fun d -> d > threshold) depths) in
      Table.add_row t
        [
          Table.Int threshold;
          Table.Float (float_of_int exceeding /. float_of_int runs);
          Table.Int exceeding;
        ])
    [ 0; 1; 2; 3; 4; 6; 8; 12 ];
  print_table t;
  print_endline "(the tail must fall toward 0 as T grows - exponentially, per Definition 1)"

(* ------------------------------------------------------------------ *)
(* EXT: chain growth and chain quality (paper's future work)           *)
(* ------------------------------------------------------------------ *)

let regen_ext () =
  section "EXT: chain growth & quality across c (extension; paper SS II future work)";
  let t =
    Table.create
      ~title:
        "Idle adversary, n = 40, Delta = 4: growth under instant vs worst-case \
         (Delta) delays against the alpha/(1+Delta alpha) lower bound"
      ~columns:
        [ "c"; "growth (delay 1)"; "growth (delay D)"; "lower bound";
          "upper bound (alpha)"; "quality" ]
  in
  List.iter
    (fun c ->
      let base =
        Sim.Config.with_c
          { Sim.Config.default with rounds = 8000; seed = 7L; nu = 0.25 }
          ~c
      in
      let run cfg = (Sim.Metrics.chain_growth (Sim.Execution.run cfg)).growth_rate in
      let fast = run base in
      let slow =
        run { base with delay_override = Some Nakamoto_net.Network.Maximal }
      in
      let p = Core.Params.of_sim_config base in
      Table.add_row t
        [
          Table.Float c; Table.Float fast; Table.Float slow;
          Table.Float (Core.Growth_quality.growth_rate_lower_bound p);
          Table.Float (Core.Growth_quality.growth_rate_upper_bound p);
          Table.Float (Sim.Metrics.chain_quality (Sim.Execution.run base));
        ])
    [ 0.5; 1.; 2.; 4.; 8. ];
  print_table t;
  print_endline
    "(instant delivery tracks the alpha ceiling; Delta-delayed delivery drops \
     toward the alpha/(1+Delta alpha) floor — the folklore bound is about \
     worst-case delays)"

(* ------------------------------------------------------------------ *)
(* EXT2: selfish mining revenue (chain quality under withholding)      *)
(* ------------------------------------------------------------------ *)

let regen_ext2 () =
  section "EXT2: Eyal-Sirer selfish mining - revenue vs honest share";
  let t =
    Table.create
      ~title:
        "Selfish revenue: gamma = 0 (honest-preferring ties, instant honest \
         propagation) vs delay-advantaged gamma ~ 1 (first-seen ties, honest \
         broadcasts held one extra round)"
      ~columns:
        [ "nu"; "revenue (gamma=0)"; "revenue (gamma~1)"; "honest share";
          "profitable g=0"; "profitable g~1" ]
  in
  List.iter
    (fun nu ->
      let revenue tie_break delay_override =
        let cfg =
          { (Sim.Scenarios.selfish ~seed:5L ~nu) with tie_break; delay_override }
        in
        1. -. Sim.Metrics.chain_quality (Sim.Execution.run cfg)
      in
      (* gamma = 0: deterministic honest-preferring ties, instant honest
         propagation - the attacker loses every race. *)
      let g0 = revenue Nakamoto_chain.Block_tree.Prefer_honest None in
      (* gamma ~ 1: the attacker uses its delay control to hold honest
         broadcasts one extra round (releases, sent point-to-point, still
         travel in one), and first-seen ties keep miners on whichever
         block landed first - the attacker's. *)
      let fs =
        revenue Nakamoto_chain.Block_tree.First_seen
          (Some (Nakamoto_net.Network.Fixed 2))
      in
      Table.add_row t
        [
          Table.Float nu; Table.Float g0; Table.Float fs; Table.Float nu;
          Table.Text (string_of_bool (g0 > nu));
          Table.Text (string_of_bool (fs > nu));
        ])
    [ 0.1; 0.2; 0.3; 0.35; 0.4; 0.45 ];
  print_table t

(* ------------------------------------------------------------------ *)
(* CONF: confirmation-depth calculator (practitioner extension)        *)
(* ------------------------------------------------------------------ *)

let regen_conf () =
  section "CONF: settlement depths from the paper's conservative rates";
  let assessments =
    List.map
      (fun nu -> Core.Confirmation.assess (Core.Params.of_c ~n:1e5 ~delta:10. ~nu ~c:6.))
      [ 0.05; 0.1; 0.2; 0.3 ]
  in
  print_table (Core.Confirmation.to_table assessments);
  (* Cross-check the race analysis three ways at one point. *)
  let closed =
    Core.Confirmation.overtake_probability ~honest_rate:0.1 ~adversary_rate:0.04
      ~deficit:3
  in
  let absorbing =
    Core.Confirmation.overtake_probability_bounded ~honest_rate:0.1
      ~adversary_rate:0.04 ~deficit:3 ~give_up_behind:60
  in
  Printf.printf
    "\novertake from 3 behind at rates 0.04/0.1: closed %.8f, absorbing-chain %.8f\n"
    closed absorbing

(* ------------------------------------------------------------------ *)
(* CONT: the continuous-time limit and the neat bound                  *)
(* ------------------------------------------------------------------ *)

let regen_cont () =
  section "CONT: the Poisson limit - where the neat bound's closed form lives";
  (* 1. Discrete -> continuous convergence at fixed c. *)
  let c = 2.5 and mu = 0.75 and n = 1e5 in
  let continuous = mu /. c *. exp (-2. *. mu /. c) in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Delta x (discrete rate) -> continuous rate mu/c e^(-2mu/c) = %.6f at c = %g"
           continuous c)
      ~columns:[ "Delta (rounds)"; "Delta x abar^2D alpha1"; "rel. gap" ]
  in
  List.iter
    (fun delta_rounds ->
      let p = 1. /. (c *. n *. float_of_int delta_rounds) in
      let discrete =
        Sim.Poisson.discrete_rate_per_time ~p ~n ~mu ~delta_rounds
        *. float_of_int delta_rounds
      in
      Table.add_row t
        [
          Table.Int delta_rounds; Table.Float discrete;
          Table.Sci (Float.abs (discrete -. continuous) /. continuous);
        ])
    [ 4; 16; 64; 1024; 100_000 ];
  print_table t;
  (* 2. Simulated continuous process vs its closed form, and the identity
     with the neat bound. *)
  let cfg = { Sim.Poisson.lambda = 1.; mu = 0.75; delta = 1. /. c } in
  let r =
    Sim.Poisson.simulate ~rng:(Prob.Rng.create ~seed:77L) cfg ~horizon:500_000.
  in
  Printf.printf
    "\nPoisson simulation (lambda=1, mu=0.75, delta=1/c): isolated rate %.6f \
     vs closed form %.6f; margin sign matches the neat bound: %b\n"
    (float_of_int r.isolated_honest /. r.horizon)
    (Sim.Poisson.isolated_rate cfg)
    (Sim.Poisson.neat_bound_equivalent cfg)

(* ------------------------------------------------------------------ *)
(* ABL: ablations #1 and #3                                            *)
(* ------------------------------------------------------------------ *)

let regen_abl () =
  section "ABL: ablations - log domain necessity & the Kiffer [6] accounting error";
  let t =
    Table.create
      ~title:"#1: linear vs log evaluation of abar^2D alpha1 (nu=0.25, c=3)"
      ~columns:[ "Delta"; "linear"; "via logs"; "verdict" ]
  in
  List.iter
    (fun delta ->
      let p = Core.Params.of_c ~n:1e5 ~delta ~nu:0.25 ~c:3. in
      let linear = (Core.Params.abar p ** (2. *. delta)) *. Core.Params.alpha1 p in
      let log_form = exp (Core.Conv_chain.log_convergence_rate p) in
      Table.add_row t
        [
          Table.Float delta; Table.Sci linear; Table.Sci log_form;
          Table.Text
            (if linear = 0. && log_form > 0. then "LINEAR UNDERFLOW"
             else if
               log_form > 0. && Float.abs (linear -. log_form) /. log_form > 1e-6
             then "drift"
             else "agree");
        ])
    [ 1e2; 1e6; 1e10; 1e13 ];
  print_table t;
  print_newline ();
  let t2 =
    Table.create
      ~title:
        "#3: corrected (alpha1) vs flawed (p mu n) accounting in Ineq. 10 margins"
      ~columns:[ "nu"; "c"; "correct margin"; "flawed margin"; "flawed overstates" ]
  in
  List.iter
    (fun (nu, c) ->
      let p = Core.Params.of_c ~n:100. ~delta:10. ~nu ~c in
      let correct = Core.Bounds.theorem1_margin p in
      let flawed = Core.Bounds.flawed_theorem1_margin p in
      Table.add_row t2
        [
          Table.Float nu; Table.Float c; Table.Float correct; Table.Float flawed;
          Table.Text (string_of_bool (flawed > correct));
        ])
    [ (0.25, 1.5); (0.3, 1.2); (0.4, 2.5); (0.45, 5.) ];
  print_table t2;
  print_newline ();
  (* The structural half of the paper's [6] critique: a two-state chain
     cannot reproduce the suffix structure. *)
  print_table
    (Core.Kiffer_comparison.to_table
       [
         Core.Params.create ~n:50. ~delta:3. ~p:0.01 ~nu:0.2;
         Core.Params.create ~n:100. ~delta:5. ~p:0.002 ~nu:0.25;
         Core.Params.create ~n:40. ~delta:4. ~p:0.005 ~nu:0.3;
       ])

(* ------------------------------------------------------------------ *)
(* MCSCALE: campaign engine multicore scaling                          *)
(* ------------------------------------------------------------------ *)

let regen_mcscale () =
  section "MCSCALE: Monte Carlo campaign throughput, 1 -> N domains";
  (* The reference grid: one safe and one attacked cell, full-protocol
     trials, shard size 1 so the work queue has enough grain to spread.
     Identical results at every jobs value is part of the engine's
     contract, so the same spec is reused and checked across rows. *)
  let spec =
    {
      Campaign.Spec.default with
      Campaign.Spec.ps = [ 0.005 ];
      ns = [ 40 ];
      deltas = [ 4 ];
      nus = [ 0.25; 0.4 ];
      trials_per_cell = 12;
      rounds = 1_000;
      seed = 11L;
      shard_size = 1;
    }
  in
  let cores = Domain.recommended_domain_count () in
  let trials = Campaign.Spec.trial_count spec in
  let reference = ref None in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "reference grid: %d full-protocol trials x %d rounds (host \
            reports %d core(s))"
           trials spec.Campaign.Spec.rounds cores)
      ~columns:[ "jobs"; "seconds"; "trials/s"; "speedup vs 1"; "identical" ]
  in
  let base_rate = ref 0. in
  List.iter
    (fun jobs ->
      let outcome = Campaign.Campaign.run ~jobs spec in
      let dt = outcome.Campaign.Campaign.elapsed in
      let rate = if dt > 0. then float_of_int trials /. dt else infinity in
      if jobs = 1 then base_rate := rate;
      let fingerprint =
        Array.map
          (fun (r : Campaign.Campaign.cell_result) ->
            Campaign.Aggregate.snapshot r.Campaign.Campaign.aggregate)
          outcome.Campaign.Campaign.cells
      in
      let identical =
        match !reference with
        | None ->
          reference := Some fingerprint;
          "(ref)"
        | Some r -> string_of_bool (r = fingerprint)
      in
      Table.add_row t
        [
          Table.Int jobs; Table.Float dt; Table.Float rate;
          Table.Float (if !base_rate > 0. then rate /. !base_rate else nan);
          Table.Text identical;
        ])
    [ 1; 2; 4 ];
  print_table t;
  if cores < 4 then
    Printf.printf
      "(host has %d core(s): speedup > 2x at 4 domains requires >= 4 cores; \
       rows above still verify bit-identical results at every jobs value)\n"
      cores

(* ------------------------------------------------------------------ *)
(* EXECSCALE: full-execution throughput at paper-scale n               *)
(* ------------------------------------------------------------------ *)

(* One row per (n, mining mode): rounds/second of Execution.run under a
   Fixed-delay policy with c held at 2.5 (so p scales as 1/n and the block
   rate per round is constant across n).  Exact mode walks every miner
   every round — O(n) — while Aggregate draws per-round counts and rides
   the Δ-ring, so its row should stay flat as n grows; Skip only touches
   event rounds, so its [processed_events] column collapses below the
   simulated horizon.  A second cell group runs at the paper's sparse
   operating point (c = 4, Delta = 64: most rounds carry nothing at all),
   where skipping empty rounds is the entire cost. *)

type execscale_cell = {
  es_n : int;
  es_mode : Sim.Config.mining_mode;
  es_c : float;
  es_delta : int;
  es_rounds : int;  (** simulated horizon *)
  es_events : int;  (** rounds the executor actually processed *)
  es_dt : float;
  es_rate : float;  (** simulated rounds per second *)
  es_blocks : int;
}

let mode_name = function
  | Sim.Config.Exact -> "exact"
  | Sim.Config.Aggregate -> "aggregate"
  | Sim.Config.Skip -> "skip"

let execscale_config ~n ~rounds ~mode ~c ~delta =
  Sim.Config.with_c
    {
      Sim.Config.default with
      n;
      nu = 0.25;
      delta;
      rounds;
      seed = 17L;
      snapshot_interval = max 1 rounds;
      delay_override = Some (Nakamoto_net.Network.Fixed 2);
      mining_mode = mode;
    }
    ~c

let time_run cfg =
  let t0 = Unix.gettimeofday () in
  let r = Sim.Execution.run cfg in
  let dt = Unix.gettimeofday () -. t0 in
  (r, dt)

let measure_cell ~n ~mode ~rounds ~c ~delta =
  let cfg = execscale_config ~n ~rounds ~mode ~c ~delta in
  let r, dt = time_run cfg in
  {
    es_n = n;
    es_mode = mode;
    es_c = c;
    es_delta = delta;
    es_rounds = rounds;
    es_events = r.Sim.Execution.processed_rounds;
    es_dt = dt;
    es_rate = (if dt > 0. then float_of_int rounds /. dt else infinity);
    es_blocks = r.Sim.Execution.honest_blocks;
  }

(* Measured cells, also serialized to BENCH_EXECSCALE.json. *)
let execscale_cells ~sizes =
  List.concat_map
    (fun n ->
      (* Equal-work horizon for the exact rows, floor of 50 rounds so the
         aggregate timer has something to chew on. *)
      let rounds = max 50 (200_000 / n) in
      List.map
        (fun mode -> measure_cell ~n ~mode ~rounds ~c:2.5 ~delta:4)
        [ Sim.Config.Exact; Sim.Config.Aggregate; Sim.Config.Skip ])
    sizes

(* The sparse paper-scale group: c = 1/(p n Delta) = 8 with Delta = 256
   puts the per-round success probability near 1/2048 — block-bearing
   rounds thousands of rounds apart, exactly the regime Skip exists for.
   (Sparsity is what matters: both executors pay the same irreducible
   price per block mined — miner materialization and fan-out delivery —
   so Skip's advantage is the empty-round overhead divided by that
   shared event cost.)  Exact mode is omitted: at these n it would
   dominate the wall clock without informing the Aggregate-vs-Skip
   comparison. *)
let paperscale_cells ~sizes ~rounds =
  List.concat_map
    (fun n ->
      List.map
        (fun mode -> measure_cell ~n ~mode ~rounds ~c:8.0 ~delta:256)
        [ Sim.Config.Aggregate; Sim.Config.Skip ])
    sizes

let execscale_json cells ~path =
  let oc = open_out path in
  let row cell =
    Printf.sprintf
      "  {\"n\": %d, \"mode\": \"%s\", \"c\": %.2f, \"delta\": %d, \
       \"simulated_rounds\": %d, \"processed_events\": %d, \
       \"seconds\": %.6f, \"rounds_per_sec\": %.1f, \"honest_blocks\": %d}"
      cell.es_n (mode_name cell.es_mode) cell.es_c cell.es_delta
      cell.es_rounds cell.es_events cell.es_dt cell.es_rate cell.es_blocks
  in
  Printf.fprintf oc "[\n%s\n]\n" (String.concat ",\n" (List.map row cells));
  close_out oc;
  Printf.printf "(json: %s)\n" path

let execscale_table ~title cells =
  let t =
    Table.create ~title
      ~columns:
        [
          "n";
          "mode";
          "sim rounds";
          "events";
          "seconds";
          "rounds/s";
          "speedup";
        ]
  in
  (* Speedup is relative to the slowest mode measured for that n within
     the group (exact when present, else aggregate). *)
  let base_rate = Hashtbl.create 8 in
  List.iter
    (fun cell ->
      if not (Hashtbl.mem base_rate cell.es_n) then
        Hashtbl.replace base_rate cell.es_n cell.es_rate;
      Table.add_row t
        [
          Table.Int cell.es_n;
          Table.Text (mode_name cell.es_mode);
          Table.Int cell.es_rounds;
          Table.Int cell.es_events;
          Table.Float cell.es_dt;
          Table.Float cell.es_rate;
          Table.Float (cell.es_rate /. Hashtbl.find base_rate cell.es_n);
        ])
    cells;
  print_table t

let regen_execscale () =
  section "EXECSCALE: executor rounds/sec, Exact vs Aggregate vs Skip";
  let cells = execscale_cells ~sizes:[ 100; 1_000; 10_000; 100_000 ] in
  execscale_table
    ~title:"c = 2.5, nu = 0.25, Delta = 4, Fixed-2 delays; p scales as 1/n"
    cells;
  let sparse = paperscale_cells ~sizes:[ 10_000; 100_000 ] ~rounds:400_000 in
  execscale_table
    ~title:
      "paper-scale: c = 8, nu = 0.25, Delta = 256 — almost every round empty"
    sparse;
  execscale_json (cells @ sparse) ~path:"BENCH_EXECSCALE.json"

(* Smoke mode (`--execscale-smoke`, wired into `make check`): a tiny
   EXECSCALE cell plus a sampler-scaling probe, with hard assertions —
   exits nonzero if the fast path stopped being fast. *)
let execscale_smoke () =
  section
    "EXECSCALE (smoke): aggregate must out-run exact, skip must out-run \
     aggregate 20x at the paper scale (n = 10^4)";
  let cells = execscale_cells ~sizes:[ 10_000 ] in
  let sparse = paperscale_cells ~sizes:[ 10_000 ] ~rounds:400_000 in
  execscale_json (cells @ sparse) ~path:"BENCH_EXECSCALE.json";
  let rate cells mode =
    List.find_map
      (fun c -> if c.es_mode = mode then Some c.es_rate else None)
      cells
    |> Option.get
  in
  let exact = rate cells Sim.Config.Exact
  and agg = rate cells Sim.Config.Aggregate in
  Printf.printf "exact: %.1f rounds/s, aggregate: %.1f rounds/s (%.0fx)\n"
    exact agg (agg /. exact);
  if not (agg >= exact) then begin
    print_endline "FAIL: aggregate mode slower than exact at n = 10^4";
    exit 1
  end;
  let agg_sparse = rate sparse Sim.Config.Aggregate
  and skip_sparse = rate sparse Sim.Config.Skip in
  let skip_events =
    List.find_map
      (fun c ->
        if c.es_mode = Sim.Config.Skip then Some c.es_events else None)
      sparse
    |> Option.get
  in
  Printf.printf
    "paper-scale: aggregate %.1f rounds/s, skip %.1f rounds/s (%.0fx; \
     %d events for %d rounds)\n"
    agg_sparse skip_sparse
    (skip_sparse /. agg_sparse)
    skip_events 400_000;
  if not (skip_sparse >= 20. *. agg_sparse) then begin
    print_endline
      "FAIL: skip mode below 20x aggregate at the paper-scale cell";
    exit 1
  end;
  (* Binomial.sample must not be linear in trials: two BTPE draws at equal
     mean (10^3) but 10x apart in trials should cost about the same.  A
     per-trial sampler would show a ~10x ratio; allow 5x for noise. *)
  let time_sampler ~trials ~p =
    let d = Prob.Binomial.create ~trials ~p in
    let g = Prob.Rng.create ~seed:23L in
    let reps = 200_000 in
    let t0 = Unix.gettimeofday () in
    let acc = ref 0 in
    for _ = 1 to reps do
      acc := !acc + Prob.Binomial.sample g d
    done;
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf
      "sample(trials=%d, p=%g): %.0f ns/draw (mean draw %.1f)\n" trials p
      (dt /. float_of_int reps *. 1e9)
      (float_of_int !acc /. float_of_int reps);
    dt
  in
  let small = time_sampler ~trials:10_000 ~p:0.1 in
  let large = time_sampler ~trials:100_000 ~p:0.01 in
  if large > 5. *. small then begin
    print_endline "FAIL: Binomial.sample cost grows with trials at fixed mean";
    exit 1
  end;
  print_endline "execscale smoke OK"

(* ------------------------------------------------------------------ *)
(* MARKOVSCALE: stationary solvers on the suffix ladder                *)
(* ------------------------------------------------------------------ *)

(* One row per (Delta, solver): seconds per stationary solve of the
   suffix chain C_F and the resulting states/sec, with every solver
   checked against the Eq. 37 closed form.  Dense LU factorizes the full
   (Delta+1)^2 matrix — O(states^3) — while the banded CSR routes pay
   O(nnz) (GTH censoring along the ladder) or O(nnz * iters) (power with
   Aitken extrapolation), so the sparse rows should pull away cubically
   as Delta grows.  Alphas shrink with Delta to keep abar^Delta ~ e^-4,
   the regime the paper's tables actually probe (deep suffix mass far
   from underflow). *)

type markovscale_cell = {
  ms_delta : int;
  ms_alpha : float;
  ms_states : int;
  ms_method : string;
  ms_dt : float;  (** seconds per solve (averaged when fast) *)
  ms_err : float;  (** max abs deviation from the Eq. 37 closed form *)
  ms_rate : float;  (** states per second *)
}

(* Single-shot timing of a microsecond-scale solve is all clock noise;
   rerun until ~50ms of work has accumulated and average.  The dense LU
   rows exceed the floor in one shot and are never repeated. *)
let time_solver f =
  let t0 = Unix.gettimeofday () in
  let pi = f () in
  let dt0 = Unix.gettimeofday () -. t0 in
  if dt0 >= 0.05 then (pi, dt0)
  else begin
    let reps = max 1 (int_of_float (0.05 /. Float.max dt0 1e-7)) in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
    (pi, dt)
  end

let markovscale_cell ~delta ~alpha meth =
  let exact = Core.Suffix_chain.stationary_closed_form ~delta ~alpha in
  let finish label (pi, dt) =
    let states = Array.length pi in
    {
      ms_delta = delta;
      ms_alpha = alpha;
      ms_states = states;
      ms_method = label;
      ms_dt = dt;
      ms_err = Nakamoto_numerics.Linalg.max_abs_diff pi exact;
      ms_rate = float_of_int states /. Float.max dt 1e-9;
    }
  in
  match meth with
  | `Dense ->
    let chain = Core.Suffix_chain.build ~delta ~alpha in
    finish "dense-lu"
      (time_solver (fun () -> Markov.Chain.stationary_linear_solve chain))
  | `Censor ->
    let sp = Core.Suffix_chain.build_sparse ~delta ~alpha in
    finish "gth-censor"
      (time_solver (fun () ->
           Option.get (Markov.Sparse.stationary_censor sp)))
  | `Power ->
    let sp = Core.Suffix_chain.build_sparse ~delta ~alpha in
    finish "power"
      (time_solver (fun () -> Markov.Sparse.stationary_power sp))
  | `Power_pool jobs ->
    let sp = Core.Suffix_chain.build_sparse ~delta ~alpha in
    Markov.Sparse.Pool.with_pool ~jobs (fun pool ->
        finish
          (Printf.sprintf "power-x%d" jobs)
          (time_solver (fun () -> Markov.Sparse.stationary_power ~pool sp)))

(* The whole per-point probe [assess] runs at an enumerable Delta —
   build C_F, solve it on the auto route, compare with Eq. 37 — as one
   "check" row; its error column is the probe's own. *)
let check_alpha delta = 4. /. float_of_int delta

let check_cell delta =
  let alpha = check_alpha delta in
  let run () = Core.Assessment.suffix_check ~delta ~alpha in
  let d, dt = time_solver run in
  let states = d.Core.Assessment.suffix_states in
  {
    ms_delta = delta;
    ms_alpha = alpha;
    ms_states = states;
    ms_method = "check";
    ms_dt = dt;
    ms_err = d.Core.Assessment.suffix_max_abs_error;
    ms_rate = float_of_int states /. Float.max dt 1e-9;
  }

let check_deltas = [ 256; 1024; 2048; 4096 ]

(* Words the check allocates per state, from the GC's own counters — a
   host-independent cost: minor-heap words (small blocks), and all words,
   which adds the blocks large enough to go straight to the major heap.
   (Gc.counters' minor count is not used: on OCaml 5.1 it can be off by a
   minor heap when a collection falls inside the window.) *)
let check_words_per_state delta =
  let alpha = check_alpha delta in
  ignore (Core.Assessment.suffix_check ~delta ~alpha);
  let s0 = Gc.quick_stat () and minor0 = Gc.minor_words () in
  let d = Core.Assessment.suffix_check ~delta ~alpha in
  let minor1 = Gc.minor_words () and s1 = Gc.quick_stat () in
  let states = float_of_int d.Core.Assessment.suffix_states in
  let minor = minor1 -. minor0 in
  let direct_major =
    s1.Gc.major_words -. s0.Gc.major_words
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
  in
  (minor /. states, (minor +. direct_major) /. states)

let markovscale_json cells ~path =
  let oc = open_out path in
  let row c =
    Printf.sprintf
      "  {\"delta\": %d, \"alpha\": %g, \"states\": %d, \"method\": \"%s\", \
       \"seconds\": %.6g, \"states_per_sec\": %.1f, \"max_err_vs_eq37\": \
       %.3e}"
      c.ms_delta c.ms_alpha c.ms_states c.ms_method c.ms_dt c.ms_rate
      c.ms_err
  in
  Printf.fprintf oc "[\n%s\n]\n" (String.concat ",\n" (List.map row cells));
  close_out oc;
  Printf.printf "(json: %s)\n" path

let markovscale_table ~title cells =
  let t =
    Table.create ~title
      ~columns:
        [
          "delta";
          "states";
          "method";
          "seconds";
          "states/s";
          "max|err| vs Eq.37";
          "speedup";
        ]
  in
  (* Speedup relative to the first solver measured for that Delta (dense
     LU when present, else the censoring baseline). *)
  let base_rate = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if not (Hashtbl.mem base_rate c.ms_delta) then
        Hashtbl.replace base_rate c.ms_delta c.ms_rate;
      Table.add_row t
        [
          Table.Int c.ms_delta;
          Table.Int c.ms_states;
          Table.Text c.ms_method;
          Table.Float c.ms_dt;
          Table.Float c.ms_rate;
          Table.Float c.ms_err;
          Table.Float (c.ms_rate /. Hashtbl.find base_rate c.ms_delta);
        ])
    cells;
  print_table t

let markovscale_cells ~points ~jobs =
  List.concat_map
    (fun (delta, alpha) ->
      (* Dense LU is O(states^3): past Delta = 500 it would dominate the
         wall clock without adding information. *)
      let methods =
        (if delta <= 500 then [ `Dense ] else [])
        @ [ `Censor; `Power; `Power_pool jobs ]
      in
      List.map (markovscale_cell ~delta ~alpha) methods)
    points

let regen_markovscale () =
  section "MARKOVSCALE: suffix-ladder stationary solves, dense vs sparse";
  let jobs = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let cells =
    markovscale_cells
      ~points:[ (64, 0.05); (500, 0.008); (2000, 0.002) ]
      ~jobs
    @ List.map check_cell check_deltas
  in
  markovscale_table
    ~title:
      "suffix chain C_F; alpha chosen so abar^Delta ~ e^-4; dense rows \
       omitted past Delta = 500"
    cells;
  markovscale_json cells ~path:"BENCH_MARKOVSCALE.json"

(* Allocation bounds for the check at Delta = 2048, in words per state
   (OCaml 5.1, no flambda).  Measured: 24 minor words and 50-53 in all.
   The kernel with one growable record per row allocated 256 minor words
   per state for the whole check (85 in the censor alone), so either
   bound catches a return to per-row small blocks. *)
let check_minor_words_floor = 40.
let check_words_floor = 80.

(* Smoke mode (`--markovscale-smoke`, wired into `make check` via
   `make markov-smoke`): the Delta = 500 column with hard assertions —
   exits nonzero if the banded solvers stop beating dense LU or drift
   off the closed form. *)
let markovscale_smoke () =
  section
    "MARKOVSCALE (smoke): GTH censoring must out-run dense LU 10x at \
     Delta = 500, all solvers within 1e-9 of Eq. 37";
  let cells = markovscale_cells ~points:[ (500, 0.008) ] ~jobs:2 in
  let checks = List.map check_cell check_deltas in
  markovscale_json (cells @ checks) ~path:"BENCH_MARKOVSCALE.json";
  markovscale_table ~title:"Delta = 500, alpha = 0.008" cells;
  markovscale_table
    ~title:"the assess probe: build C_F, auto-route solve, Eq. 37 check"
    checks;
  let rate m = (List.find (fun c -> c.ms_method = m) cells).ms_rate in
  let worst = List.fold_left (fun acc c -> Float.max acc c.ms_err) 0. cells in
  Printf.printf "worst deviation from Eq. 37 across solvers: %.3e\n" worst;
  if not (worst <= 1e-9) then begin
    print_endline "FAIL: a stationary solver drifted off the closed form";
    exit 1
  end;
  let dense = rate "dense-lu" and censor = rate "gth-censor" in
  Printf.printf "dense-lu: %.0f states/s, gth-censor: %.0f states/s (%.0fx)\n"
    dense censor (censor /. dense);
  if not (censor >= 10. *. dense) then begin
    print_endline "FAIL: sparse censoring below 10x dense LU at Delta = 500";
    exit 1
  end;
  let minor, total = check_words_per_state 2048 in
  Printf.printf
    "check at Delta = 2048 allocates %.1f minor words and %.1f words in \
     all per state\n"
    minor total;
  if not (minor <= check_minor_words_floor && total <= check_words_floor)
  then begin
    Printf.printf
      "FAIL: the check allocates above %.0f minor / %.0f total words per \
       state\n"
      check_minor_words_floor check_words_floor;
    exit 1
  end;
  print_endline "markovscale smoke OK"

(* ------------------------------------------------------------------ *)
(* CONFSEARCH: the confirmation-depth search against its linear scan   *)
(* ------------------------------------------------------------------ *)

(* The P evaluations the gallop-and-bisect search in
   Confirmation.confirmations_for makes to answer [answer] (None: the
   depth cap).  On the monotone P a probe at depth m passes
   (P(m) <= epsilon) exactly when m >= z, so the probe sequence follows
   from z alone. *)
let confsearch_evals ~limit answer =
  let z = Option.value answer ~default:(limit + 1) in
  let rec gallop lo k n =
    let k = min k limit in
    if k >= z then bisect lo k (n + 1)
    else if k = limit then n + 1
    else gallop k (2 * k) (n + 1)
  and bisect lo hi n =
    if hi - lo <= 1 then n
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if mid >= z then bisect lo mid (n + 1) else bisect mid hi (n + 1)
    end
  in
  gallop 0 1 0

(* The scan the search replaced: P(1), P(2), ... until P <= epsilon. *)
let confsearch_linear ~ratio ~epsilon =
  let limit = Core.Confirmation.depth_limit in
  let rec go z =
    if z > limit then None
    else if Core.Confirmation.nakamoto_double_spend ~ratio ~confirmations:z
            <= epsilon
    then Some z
    else go (z + 1)
  in
  go 1

(* Smoke mode (`--confsearch-smoke`, wired into `make check` via
   `make confsearch-smoke`): one row per rate ratio at the default
   epsilon, timed in units of one P(depth_limit) evaluation so the floor
   does not depend on the host.  Exits nonzero if the search disagrees
   with the linear scan (checked where the scan is cheap: ratio <= 0.9),
   or if the 0.95 row or the depth-limited row costs more than 64 P(cap)
   evaluations — the linear scan costs ~1100 at 0.95. *)
let confsearch_smoke () =
  section
    "CONFSEARCH (smoke): gallop-and-bisect depth search vs the linear \
     scan; floor 64 P(cap) evaluations at ratio 0.95 and when depth-limited";
  let epsilon = Core.Confirmation.default_epsilon
  and limit = Core.Confirmation.depth_limit in
  let _, unit_dt =
    time_solver (fun () ->
        Core.Confirmation.nakamoto_double_spend ~ratio:0.95 ~confirmations:limit)
  in
  Printf.printf "one P(%d) evaluation: %.3f ms\n" limit (unit_dt *. 1e3);
  let t =
    Table.create ~title:(Printf.sprintf "epsilon = %g, cap %d" epsilon limit)
      ~columns:
        [ "ratio"; "z"; "P evals"; "search ms"; "in P(cap) evals";
          "linear scan ms" ]
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (ratio, floored, checked) ->
      let answer, dt =
        time_solver (fun () ->
            Core.Confirmation.confirmations_for ~ratio ~epsilon ())
      in
      let units = dt /. unit_dt in
      let scan_ms =
        if not checked then Table.Text "-"
        else begin
          let t0 = Unix.gettimeofday () in
          let scan = confsearch_linear ~ratio ~epsilon in
          let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
          if scan <> answer then fail "ratio %g: search disagrees with the linear scan" ratio;
          Table.Float ms
        end
      in
      if floored && not (units <= 64.) then
        fail "ratio %g: search costs %.1f P(cap) evaluations (floor 64)" ratio units;
      Table.add_row t
        [
          Table.Float ratio;
          Table.Text
            (match answer with
            | Some z -> string_of_int z
            | None -> "depth_limited");
          Table.Int (confsearch_evals ~limit answer);
          Table.Float (dt *. 1e3);
          Table.Float units;
          scan_ms;
        ])
    [
      (0.5, false, true);
      (0.8, false, true);
      (0.9, false, true);
      (0.95, true, false);
      (0.97, true, false);
    ];
  print_table t;
  match List.rev !failures with
  | [] -> print_endline "confsearch smoke OK"
  | fs ->
    List.iter (fun m -> print_endline ("FAIL: " ^ m)) fs;
    exit 1

(* ------------------------------------------------------------------ *)
(* SERVESCALE: campaign daemon throughput vs worker count              *)
(* ------------------------------------------------------------------ *)

module Serve = Nakamoto_serve

type ss_cell = {
  ss_label : string;
  ss_workers : int;
  ss_kill : bool;
  ss_shards : int;
  ss_elapsed : float;
  ss_rate : float;
  ss_granted : int;
  ss_journal : string;
}

(* Daemon-side counters come back through the telemetry.prom export;
   unlabelled counters render as "name value". *)
let prom_counter prom name =
  List.fold_left
    (fun acc line ->
      if String.length line > 0 && line.[0] <> '#' then
        match String.index_opt line ' ' with
        | Some i when String.sub line 0 i = name -> (
          match
            int_of_string_opt
              (String.sub line (i + 1) (String.length line - i - 1))
          with
          | Some v -> v
          | None -> acc)
        | _ -> acc
      else acc)
    0
    (String.split_on_char '\n' prom)

let servescale_spec =
  {
    Campaign.Spec.default with
    Campaign.Spec.ps = [ 0.02 ];
    ns = [ 8 ];
    deltas = [ 2 ];
    nus = [ 0.1; 0.3 ];
    trials_per_cell = 16;
    rounds = 200;
    seed = 77L;
    shard_size = 1;
  }

let servescale_read path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* One campaign through a real daemon + worker fleet, all in Domains.
   [kill] arms a Raising_worker that leases shard 0 first and dies
   computing it, so the run also pays one lease reassignment. *)
let servescale_run ~transport ~workers ~kill () =
  let quiet _ = () in
  let tmp tag suffix =
    let p = Filename.temp_file ("nakamoto_servescale_" ^ tag) suffix in
    Sys.remove p;
    p
  in
  let socket = tmp "sock" ".sock" in
  let teldir = tmp "tel" "" in
  let journal = tmp "journal" ".jsonl" in
  let port = Atomic.make 0 in
  let daemon =
    Domain.spawn (fun () ->
        try
          ignore
            (match transport with
            | `Unix ->
              Serve.Coordinator.serve ~socket ~max_campaigns:1
                ~lease_timeout:10. ~telemetry:teldir ~log:quiet ()
            | `Tcp ->
              Serve.Coordinator.serve ~tcp:("127.0.0.1", 0) ~max_campaigns:1
                ~lease_timeout:10. ~telemetry:teldir ~log:quiet
                ~on_tcp_port:(fun p -> Atomic.set port p)
                ());
          0
        with _ -> 1)
  in
  let addr =
    match transport with
    | `Unix -> Serve.Conn.Unix_path socket
    | `Tcp ->
      let rec wait n =
        if Atomic.get port = 0 then
          if n > 200 then failwith "servescale: daemon never reported a port"
          else begin
            Unix.sleepf 0.05;
            wait (n + 1)
          end
      in
      wait 0;
      Serve.Conn.Tcp ("127.0.0.1", Atomic.get port)
  in
  let spawn_worker ?fault () =
    Domain.spawn (fun () ->
        try
          ignore (Serve.Worker.run ~addr ~lease_batch:2 ?fault ~log:quiet ());
          0
        with _ -> 70)
  in
  let faulty =
    if kill then
      Some
        (spawn_worker
           ~fault:
             (Campaign.Faultplan.Raising_worker { task = 0; failures = 1 })
           ())
    else None
  in
  let t0 = Unix.gettimeofday () in
  let client =
    Domain.spawn (fun () ->
        match Serve.Client.submit ~addr ~journal servescale_spec with
        | Ok _ -> 0
        | Error _ | (exception _) -> 1)
  in
  (* The faulty worker joins the queue alone, so it necessarily holds
     shard 0 when it dies; the fleet then absorbs the requeued lease. *)
  (match faulty with
  | Some d ->
    if Domain.join d <> 70 then failwith "servescale: fault did not fire"
  | None -> ());
  let fleet = List.init workers (fun _ -> spawn_worker ()) in
  if Domain.join client <> 0 then failwith "servescale: campaign failed";
  let elapsed = Unix.gettimeofday () -. t0 in
  if Domain.join daemon <> 0 then failwith "servescale: daemon failed";
  List.iter (fun d -> ignore (Domain.join d)) fleet;
  let prom = servescale_read (Filename.concat teldir "telemetry.prom") in
  let cells = Array.length (Campaign.Spec.cells servescale_spec) in
  let shards = cells * servescale_spec.Campaign.Spec.trials_per_cell in
  let journal_bytes = servescale_read journal in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [
      socket; journal;
      Filename.concat teldir "telemetry.prom";
      Filename.concat teldir "telemetry.jsonl";
    ];
  (try Unix.rmdir teldir with Unix.Unix_error _ | Sys_error _ -> ());
  {
    ss_label =
      (match transport with `Unix -> "unix" | `Tcp -> "tcp")
      ^ if kill then "+kill" else "";
    ss_workers = workers;
    ss_kill = kill;
    ss_shards = shards;
    ss_elapsed = elapsed;
    ss_rate = float_of_int shards /. Float.max 1e-9 elapsed;
    ss_granted = prom_counter prom "serve_leases_granted_total";
    ss_journal = journal_bytes;
  }

let servescale_table ~title cells =
  let t =
    Table.create ~title
      ~columns:
        [
          "transport"; "workers"; "shards"; "elapsed s"; "shards/s";
          "leases granted";
        ]
  in
  List.iter
    (fun c ->
      Table.add_row t
        [
          Table.Text c.ss_label;
          Table.Int c.ss_workers;
          Table.Int c.ss_shards;
          Table.Float c.ss_elapsed;
          Table.Float c.ss_rate;
          Table.Int c.ss_granted;
        ])
    cells;
  print_table t

let regen_servescale () =
  section
    "SERVESCALE: daemon shards/s vs worker count (32 shards, 200 rounds); \
     +kill rows pay one mid-lease death and reassignment";
  let cells =
    [
      servescale_run ~transport:`Unix ~workers:1 ~kill:false ();
      servescale_run ~transport:`Unix ~workers:2 ~kill:false ();
      servescale_run ~transport:`Unix ~workers:4 ~kill:false ();
      servescale_run ~transport:`Unix ~workers:2 ~kill:true ();
      servescale_run ~transport:`Tcp ~workers:2 ~kill:false ();
      servescale_run ~transport:`Tcp ~workers:2 ~kill:true ();
    ]
  in
  servescale_table
    ~title:"one campaign per row, lease batch 2, Unix socket and TCP loopback"
    cells;
  match cells with
  | [] -> ()
  | first :: rest ->
    if List.for_all (fun c -> c.ss_journal = first.ss_journal) rest then
      print_endline
        "journal bytes identical across every transport / fleet / kill row"
    else begin
      print_endline "FAIL: journals diverged across topologies";
      exit 1
    end

(* Smoke mode (`--servescale-smoke`, wired into `make check` via
   `make serve-smoke`): one Unix row and one TCP row with a mid-lease
   kill, asserting completion, lease churn from the reassignment, and
   byte-identical journals across the two transports. *)
let servescale_smoke () =
  section
    "SERVESCALE (smoke): kill-mid-lease campaigns over both transports \
     must complete with byte-identical journals";
  let unix_cell = servescale_run ~transport:`Unix ~workers:2 ~kill:false () in
  let tcp_cell = servescale_run ~transport:`Tcp ~workers:2 ~kill:true () in
  servescale_table ~title:"32 shards, 200 rounds, lease batch 2"
    [ unix_cell; tcp_cell ];
  if unix_cell.ss_journal <> tcp_cell.ss_journal then begin
    print_endline "FAIL: unix and tcp journals diverged";
    exit 1
  end;
  if String.length unix_cell.ss_journal = 0 then begin
    print_endline "FAIL: empty journal";
    exit 1
  end;
  if unix_cell.ss_granted < unix_cell.ss_shards then begin
    print_endline "FAIL: fewer leases granted than shards";
    exit 1
  end;
  (* The killed worker's shard 0 lease must have been granted twice. *)
  if tcp_cell.ss_granted < tcp_cell.ss_shards + 1 then begin
    print_endline "FAIL: no lease churn recorded for the mid-lease kill";
    exit 1
  end;
  print_endline "servescale smoke OK"

(* ------------------------------------------------------------------ *)
(* ASSESSSCALE: certified surface queries/sec vs the exact solver      *)
(* ------------------------------------------------------------------ *)

module Surface = Nakamoto_surface

(* The box sits on the confirmation-depth plateau (rate ratio 0.02-0.04,
   depth 3 everywhere) at enumerable Delta, where the exact assessment
   pays a Delta-state stationary solve per point (the suffix-chain
   health probe) — the regime a precomputed surface exists to amortize.
   Queries draw integer Delta so every exact call pays that full cost. *)
let assessscale_box ~count =
  Surface.Grid.create
    ~p:(Surface.Grid.axis ~lo:1.6e-6 ~hi:1.9e-6 ~count ~scale:Surface.Grid.Log)
    ~n:(Surface.Grid.axis ~lo:100. ~hi:140. ~count ~scale:Surface.Grid.Log)
    ~delta:
      (Surface.Grid.axis ~lo:1800. ~hi:2048. ~count ~scale:Surface.Grid.Log)
    ~nu:
      (Surface.Grid.axis ~lo:0.012 ~hi:0.016 ~count
         ~scale:Surface.Grid.Linear)

let assessscale_queries ~count:n =
  let rng = Prob.Rng.create ~seed:41L in
  let log_range lo hi = lo *. exp (Prob.Rng.float rng *. log (hi /. lo)) in
  Array.init n (fun _ ->
      Core.Params.create
        ~p:(log_range 1.6e-6 1.9e-6)
        ~n:(log_range 100. 140.)
        ~delta:(float_of_int (1800 + Prob.Rng.int rng ~bound:249))
        ~nu:(0.012 +. (Prob.Rng.float rng *. 0.004)))

type as_cell = {
  as_count : int;
  as_cells : int;
  as_full : int;
  as_build : float;
  as_queries : int;
  as_hits : int;
  as_exact_rate : float;
  as_cached_rate : float;
}

(* One density row: build the surface, keep only queries the table can
   serve cached (interiors of fully-conclusive cells — the fair
   comparison; fallbacks would just time the exact solver twice), then
   race the two paths over the same points. *)
let assessscale_cell ~count ~queries ~exact_rate =
  let t0 = Unix.gettimeofday () in
  let table = Surface.Table.build (assessscale_box ~count) in
  let build = Unix.gettimeofday () -. t0 in
  let _, _, full = Surface.Table.conclusive_counts table in
  let cached_pts =
    Array.of_list
      (List.filter
         (fun p -> (Surface.Table.assess_cached table p).Core.Assessment.v_cached)
         (Array.to_list queries))
  in
  let reps = max 1 (50_000 / max 1 (Array.length cached_pts)) in
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for _ = 1 to reps do
    Array.iter
      (fun p ->
        let v = Surface.Table.assess_cached table p in
        if v.Core.Assessment.v_cached then incr acc)
      cached_pts
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let served = reps * Array.length cached_pts in
  assert (!acc = served);
  {
    as_count = count;
    as_cells = Surface.Grid.cell_count (Surface.Table.grid table);
    as_full = full;
    as_build = build;
    as_queries = Array.length queries;
    as_hits = Array.length cached_pts;
    as_exact_rate = exact_rate;
    as_cached_rate = float_of_int served /. dt;
  }

(* The exact rate is a property of the solver, not of any table: measure
   it once over the query set and share it across density rows. *)
let assessscale_exact_rate queries =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  Array.iter
    (fun p ->
      match (Core.Assessment.assess p).Core.Assessment.confirmations with
      | Some c -> acc := !acc + c.Core.Confirmation.confirmations
      | None -> ())
    queries;
  let dt = Unix.gettimeofday () -. t0 in
  ignore !acc;
  float_of_int (Array.length queries) /. dt

let assessscale_json cells ~path =
  let oc = open_out path in
  let row c =
    Printf.sprintf
      "  {\"count\": %d, \"cells\": %d, \"fully_conclusive\": %d, \
       \"build_seconds\": %.6f, \"queries\": %d, \"cached_hits\": %d, \
       \"exact_qps\": %.1f, \"cached_qps\": %.1f, \"speedup\": %.1f}"
      c.as_count c.as_cells c.as_full c.as_build c.as_queries c.as_hits
      c.as_exact_rate c.as_cached_rate
      (c.as_cached_rate /. c.as_exact_rate)
  in
  Printf.fprintf oc "[\n%s\n]\n" (String.concat ",\n" (List.map row cells));
  close_out oc;
  Printf.printf "(json: %s)\n" path

let assessscale_table ~title cells =
  let t =
    Table.create ~title
      ~columns:
        [
          "grid";
          "cells";
          "conclusive";
          "build s";
          "hit rate";
          "exact q/s";
          "cached q/s";
          "speedup";
        ]
  in
  List.iter
    (fun c ->
      Table.add_row t
        [
          Table.Text (Printf.sprintf "%d^4" c.as_count);
          Table.Int c.as_cells;
          Table.Int c.as_full;
          Table.Float c.as_build;
          Table.Float
            (float_of_int c.as_hits /. float_of_int c.as_queries);
          Table.Float c.as_exact_rate;
          Table.Float c.as_cached_rate;
          Table.Float (c.as_cached_rate /. c.as_exact_rate);
        ])
    cells;
  print_table t

let regen_assessscale () =
  section
    "ASSESSSCALE: certified surface lookups vs exact per-point solves \
     (enumerable Delta 1800-2048, depth-3 plateau)";
  let queries = assessscale_queries ~count:120 in
  let exact_rate = assessscale_exact_rate queries in
  let cells =
    List.map
      (fun count -> assessscale_cell ~count ~queries ~exact_rate)
      [ 3; 4; 6 ]
  in
  assessscale_table
    ~title:
      "integer-Delta queries; exact pays the Delta-state suffix solve, \
       cached interpolates the certified table"
    cells;
  assessscale_json cells ~path:"BENCH_ASSESSSCALE.json"

(* Smoke mode (`--assessscale-smoke`, wired into `make check` via
   `make assessscale-smoke`): one density with hard assertions — exits
   nonzero if cached queries stop being at least 20x the exact solver,
   or if the box stops certifying. *)
let assessscale_smoke () =
  section
    "ASSESSSCALE (smoke): cached surface queries must run 20x the exact \
     solver on the certified plateau";
  let queries = assessscale_queries ~count:40 in
  let exact_rate = assessscale_exact_rate queries in
  let cell = assessscale_cell ~count:4 ~queries ~exact_rate in
  assessscale_json [ cell ] ~path:"BENCH_ASSESSSCALE.json";
  Printf.printf
    "exact: %.1f q/s, cached: %.1f q/s (%.0fx), %d/%d queries served \
     cached, %d/%d cells fully conclusive\n"
    cell.as_exact_rate cell.as_cached_rate
    (cell.as_cached_rate /. cell.as_exact_rate)
    cell.as_hits cell.as_queries cell.as_full cell.as_cells;
  if cell.as_full * 2 < cell.as_cells then begin
    print_endline "FAIL: under half the box certified — grid drifted off the plateau";
    exit 1
  end;
  if cell.as_hits * 2 < cell.as_queries then begin
    print_endline "FAIL: under half the queries served cached";
    exit 1
  end;
  if not (cell.as_cached_rate >= 20. *. cell.as_exact_rate) then begin
    print_endline "FAIL: cached queries below 20x the exact solver";
    exit 1
  end;
  print_endline "assessscale smoke OK"

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel timing benches                                     *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let timing_tests () =
  let stage = Staged.stage in
  let params_small = Core.Params.create ~n:50. ~delta:3. ~p:0.01 ~nu:0.2 in
  let suffix_chain = Core.Suffix_chain.build ~delta:50 ~alpha:0.1 in
  let rng = Prob.Rng.create ~seed:1L in
  let sp_cfg = { Sim.State_process.honest = 40; adversarial = 10; p = 0.01; delta = 3 } in
  let trace =
    Sim.State_process.run_trace ~rng:(Prob.Rng.create ~seed:2L) sp_cfg
      ~rounds:10_000
  in
  let attack_cfg =
    { (Sim.Scenarios.attack_zone ~seed:3L ~nu:0.3) with Sim.Config.rounds = 500 }
  in
  let binom = Prob.Binomial.create ~trials:40 ~p:0.01 in
  [
    Test.make ~name:"fig1:row"
      (stage (fun () -> ignore (Core.Figure1.compute_row ~c:3. ())));
    Test.make ~name:"fig2:census-d8"
      (stage (fun () -> ignore (Core.Figure2.census ~delta:8 ~alpha:0.2)));
    Test.make ~name:"tab1:table"
      (stage (fun () -> ignore (Core.Table1.for_params Core.Params.bitcoin_like)));
    Test.make ~name:"rmk1:regimes"
      (stage (fun () -> ignore (Core.Theorem2.remark1_rows ())));
    Test.make ~name:"eq37:closed-d50"
      (stage (fun () ->
           ignore (Core.Suffix_chain.stationary_closed_form ~delta:50 ~alpha:0.1)));
    Test.make ~name:"eq37:solve-d50"
      (stage (fun () -> ignore (Markov.Chain.stationary_linear_solve suffix_chain)));
    Test.make ~name:"eq44:closed-rate"
      (stage (fun () -> ignore (Core.Conv_chain.convergence_rate params_small)));
    Test.make ~name:"lem:verify-chain"
      (stage (fun () ->
           ignore
             (Core.Lemmas.verify_chain ~eps1:0.5 ~eps2:0.1
                (Core.Params.of_c ~n:1e5 ~delta:1e13 ~nu:0.25 ~c:3.))));
    Test.make ~name:"thm1:numax"
      (stage (fun () ->
           ignore (Core.Bounds.theorem1_numax ~n:1e5 ~delta:1e13 ~c:2. ())));
    Test.make ~name:"sim:state-10k"
      (stage (fun () -> ignore (Sim.State_process.run ~rng sp_cfg ~rounds:10_000)));
    Test.make ~name:"sim:pattern-stream-10k"
      (stage (fun () ->
           let p = Sim.Pattern.create ~delta:3 in
           Sim.Pattern.observe_all p trace;
           ignore (Sim.Pattern.count p)));
    Test.make ~name:"sim:pattern-rescan-10k"
      (stage (fun () -> ignore (Sim.Pattern.count_by_rescan ~delta:3 trace)));
    Test.make ~name:"sim:execution-500r"
      (stage (fun () -> ignore (Sim.Execution.run attack_cfg)));
    Test.make ~name:"prob:binomial-sample"
      (stage (fun () -> ignore (Prob.Binomial.sample rng binom)));
    Test.make ~name:"prob:rng-bits64"
      (stage (fun () -> ignore (Prob.Rng.bits64 rng)));
  ]

let run_bechamel () =
  section "TIMING: Bechamel OLS estimates (monotonic clock)";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let grouped = Test.make_grouped ~name:"nakamoto" (timing_tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let analyzed = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        (name, est) :: acc)
      analyzed []
    |> List.sort compare
  in
  let t =
    Table.create ~title:"one Test.make per artifact + substrate hot paths"
      ~columns:[ "bench"; "ns/run"; "approx" ]
  in
  List.iter
    (fun (name, ns) ->
      let approx =
        if Float.is_nan ns then "-"
        else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Table.add_row t [ Table.Text name; Table.Float ns; Table.Text approx ])
    rows;
  print_table t

let () =
  if Array.exists (String.equal "--execscale-smoke") Sys.argv then begin
    execscale_smoke ();
    exit 0
  end;
  if Array.exists (String.equal "--markovscale-smoke") Sys.argv then begin
    markovscale_smoke ();
    exit 0
  end;
  if Array.exists (String.equal "--servescale-smoke") Sys.argv then begin
    servescale_smoke ();
    exit 0
  end;
  if Array.exists (String.equal "--confsearch-smoke") Sys.argv then begin
    confsearch_smoke ();
    exit 0
  end;
  if Array.exists (String.equal "--assessscale-smoke") Sys.argv then begin
    assessscale_smoke ();
    exit 0
  end;
  regen_fig1 ();
  regen_fig2 ();
  regen_tab1 ();
  regen_rmk1 ();
  regen_eq37 ();
  regen_eq44 ();
  regen_thm1 ();
  regen_lem ();
  regen_atk ();
  regen_phase ();
  regen_scale ();
  regen_gap ();
  regen_conc ();
  regen_decay ();
  regen_ext ();
  regen_ext2 ();
  regen_conf ();
  regen_cont ();
  regen_abl ();
  regen_mcscale ();
  regen_execscale ();
  regen_markovscale ();
  regen_servescale ();
  regen_assessscale ();
  run_bechamel ();
  print_newline ();
  print_endline
    "All artifacts regenerated. See EXPERIMENTS.md for the paper-vs-measured index."
