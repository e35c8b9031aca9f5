(* Seeded input generators.  Every input a workload sends is a pure
   function of the workload seed (and a cycle or slot index), drawn from
   the repo's own SplitMix stream so the bytes are stable across
   platforms. *)

module Rng = Nakamoto_prob.Rng
module Core = Nakamoto_core
module Json = Nakamoto_campaign.Json
module Spec = Nakamoto_campaign.Spec

type point = { nu : float; c : float; n : float; delta : float }

let params pt = Core.Params.of_c ~n:pt.n ~delta:pt.delta ~nu:pt.nu ~c:pt.c

(* Adversary rate over Eq. 44 convergence rate: the quantity the
   confirmation-depth search cost depends on (O(z^2), z growing without
   bound as the ratio approaches 1). *)
let rate_ratio pt =
  let p = params pt in
  Core.Params.adversary_rate p /. Core.Conv_chain.convergence_rate p

let internet_n = 1e5
let internet_delta = 1e13

(* nu uniform in [0.05, 0.45], c log-uniform in [0.3, 30]. *)
let draw_nu_c rng =
  let nu = 0.05 +. (0.4 *. Rng.float rng) in
  let c = 0.3 *. (100. ** Rng.float rng) in
  (nu, c)

let internet_point rng =
  let nu, c = draw_nu_c rng in
  { nu; c; n = internet_n; delta = internet_delta }

(* ---- assess-sweep ------------------------------------------------ *)

let sweep_pass_points = 256
let sweep_pool = 1 lsl 18

(* The sweep pass: [sweep_pass_points] Internet-scale points
   drawn from [internet_point] and stratified on the rate ratio: a
   seeded i.i.d. pool is sorted by ratio and the pass takes the pool
   point at the centre of each of [sweep_pass_points] equal-probability
   strata.  The per-point cost is a function of the ratio alone, so
   this fixes how many near-boundary (expensive) points a pass holds,
   where i.i.d. sampling would let that count swing by its Poisson
   spread from seed to seed; which (nu, c) pair carries each ratio
   still varies with the seed.  The pass is then shuffled. *)
let sweep_points ~seed =
  let rng = Rng.of_path ~seed [ 1 ] in
  let pool =
    Array.init sweep_pool (fun _ ->
        let pt = internet_point rng in
        (rate_ratio pt, pt))
  in
  Array.stable_sort (fun (a, _) (b, _) -> Float.compare a b) pool;
  let pts =
    Array.init sweep_pass_points (fun i ->
        let q = (float_of_int i +. 0.5) /. float_of_int sweep_pass_points in
        snd pool.(int_of_float (q *. float_of_int sweep_pool)))
  in
  Rng.shuffle rng pts;
  pts

(* The [assess --stdin-jsonl] request line for a point. *)
let jsonl_of_point pt =
  Json.render
    (Json.Obj
       [
         ("nu", Json.Num (Json.float_str pt.nu));
         ("c", Json.Num (Json.float_str pt.c));
         ("n", Json.Num (Json.float_str pt.n));
         ("delta", Json.Num (Json.float_str pt.delta));
       ])

(* ---- assess-rpc -------------------------------------------------- *)

type rpc_class = Cheap | Enumerable

let rpc_pool_size = 2000
let rpc_enumerable_share = 0.1

(* Both classes keep the confirmation search small.  The search is
   O(z^2) in a depth z that grows without bound as the ratio nears 1: it
   costs 30 us at ratio 0.5 but 1.8 ms at 0.8 and 30 ms at 0.9, which
   would put it, not the suffix-chain diagnostic, at the RPC p99. *)
let ratio_cap = 0.5

let rec draw_below_cap rng mk =
  let pt = mk rng in
  if rate_ratio pt < ratio_cap then pt else draw_below_cap rng mk

let enumerable_n = 1e4
let delta_lo = 64
let delta_hi = 2048

(* The query pool of [assess-rpc]: 90% Internet-scale points (answered
   in microseconds: Delta is not enumerable, so no suffix-chain solve)
   and exactly 10% enumerable points whose integer Delta in
   [64, 2048] is systematically sampled, so every seed sees the same
   spread of diagnostic costs.  Both classes keep the rate ratio under
   [ratio_cap]. *)
let rpc_pool ~seed =
  let rng = Rng.of_path ~seed [ 2 ] in
  let n_enum =
    int_of_float (Float.round (rpc_enumerable_share *. float_of_int rpc_pool_size))
  in
  let u0 = Rng.float rng in
  let enum =
    Array.init n_enum (fun i ->
        let q = (float_of_int i +. u0) /. float_of_int n_enum in
        let delta =
          float_of_int
            (delta_lo + int_of_float (q *. float_of_int (delta_hi - delta_lo + 1)))
        in
        ( Enumerable,
          draw_below_cap rng (fun rng ->
              let nu, c = draw_nu_c rng in
              { nu; c; n = enumerable_n; delta }) ))
  in
  let cheap =
    Array.init (rpc_pool_size - n_enum) (fun _ ->
        (Cheap, draw_below_cap rng internet_point))
  in
  let pool = Array.append enum cheap in
  Rng.shuffle rng pool;
  pool

(* Poisson arrivals at [rate] per second: the open-loop schedule of one
   cycle, as offsets from the cycle start. *)
let arrivals ~seed ~cycle ~rate ~duration =
  let rng = Rng.of_path ~seed [ 3; cycle ] in
  let rec go t acc =
    let t = t -. (log (1. -. Rng.float rng) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0. []

(* ---- campaign ---------------------------------------------------- *)

type leg = Dense | Paper | Daemon

let leg_name = function Dense -> "dense" | Paper -> "paper" | Daemon -> "daemon"
let leg_index = function Dense -> 0 | Paper -> 1 | Daemon -> 2

(* Distinct specs per leg; the closed loop cycles through them so every
   journal has a reference computed before timing starts. *)
let specs_per_leg = function Paper -> 4 | Dense -> 3 | Daemon -> 2

let leg_spec ~seed leg ~slot =
  let seed = Rng.seed_of_path ~seed [ 4; leg_index leg; slot ] in
  match leg with
  | Dense ->
    (* c = 1/(p n Delta) = 1.25: blocks every round, so the executor's
       per-round work dominates and the audit is small. *)
    {
      Spec.default with
      Spec.ps = [ 1e-4 ];
      ns = [ 1000 ];
      deltas = [ 8 ];
      nus = [ 0.25 ];
      trials_per_cell = 1;
      rounds = 20_000;
      mining_mode = Nakamoto_sim.Config.Aggregate;
      seed;
      shard_size = 1;
    }
  | Paper ->
    (* The paper's regime, c = 8 at Delta = 256: the Skip executor
       touches a few dozen event rounds, and the O(snapshots^2 * n)
       consistency audit is nearly all of the trial. *)
    {
      Spec.default with
      Spec.ps = [ 1. /. (8. *. 1e4 *. 256.) ];
      ns = [ 10_000 ];
      deltas = [ 256 ];
      nus = [ 0.3 ];
      trials_per_cell = 1;
      rounds = 40_000;
      mining_mode = Nakamoto_sim.Config.Skip;
      seed;
      shard_size = 1;
    }
  | Daemon ->
    (* Tiny shards (n = 8, Delta = 2, 200 rounds, one trial each): lease,
       fold and journal work per shard outweighs the simulation. *)
    {
      Spec.default with
      Spec.ps = [ 0.02 ];
      ns = [ 8 ];
      deltas = [ 2 ];
      nus = [ 0.1; 0.3 ];
      trials_per_cell = 768;
      rounds = 200;
      seed;
      shard_size = 1;
    }

(* The audit's work in one paper-cell trial, read off the executor's
   output alone (a Skip run costs ~0.05 s, the audit ~0.8 s): every
   snapshot tip above the truncation depth is checked against every
   later snapshot. *)
let audit_pairs sp =
  let cfg = Spec.config_of_cell sp (Spec.cells sp).(0) ~trial:0 in
  let snaps = Array.of_list (Nakamoto_sim.Execution.run cfg).snapshots in
  let n = Array.length snaps in
  let acc = ref 0 in
  Array.iteri
    (fun ri (snap : Nakamoto_sim.Execution.snapshot) ->
      let above =
        Array.fold_left
          (fun k (b : Nakamoto_chain.Block.t) -> if b.height > cfg.truncate then k + 1 else k)
          0 snap.tips
      in
      acc := !acc + (above * (n - ri)))
    snaps;
  !acc

let paper_candidates = 16

(* The specs one run of a leg cycles through.  A paper-cell trial's
   audit cost follows its chain height, which swings the trial by up to
   2x from seed to seed; a few i.i.d. specs would carry that swing into
   the run's median.  So the paper leg draws [paper_candidates] seeded
   specs, sorts them by [audit_pairs], and takes the one at the centre of
   each of [specs_per_leg Paper] equal strata, as [sweep_points] does for
   the sweep. *)
let campaign_specs ~seed leg =
  let k = specs_per_leg leg in
  match leg with
  | Dense | Daemon -> Array.init k (fun slot -> leg_spec ~seed leg ~slot)
  | Paper ->
    let cands =
      Array.init paper_candidates (fun slot ->
          let sp = leg_spec ~seed Paper ~slot in
          (audit_pairs sp, slot, sp))
    in
    Array.sort (fun (a, i, _) (b, j, _) -> compare (a, i) (b, j)) cands;
    Array.init k (fun i ->
        let _, _, sp = cands.(((2 * i) + 1) * paper_candidates / (2 * k)) in
        sp)
