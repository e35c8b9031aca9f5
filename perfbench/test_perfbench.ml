(* The benchmark's own tests: seeded inputs are reproducible, the
   cheap assess-rpc class stays cheap, and every output check can fail. *)

open Perfbench
module Core = Nakamoto_core
module Spec = Nakamoto_campaign.Spec

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

(* Everything a workload sends, rendered to bytes. *)
let inputs seed =
  let sweep = Array.map Gen.jsonl_of_point (Gen.sweep_points ~seed) in
  let rpc = Array.map (fun (_, pt) -> Gen.jsonl_of_point pt) (Gen.rpc_pool ~seed) in
  let arrivals = Array.map (Printf.sprintf "%h") (Gen.arrivals ~seed ~cycle:0 ~rate:250. ~duration:5.) in
  let specs =
    List.concat_map
      (fun leg -> Array.to_list (Array.map Spec.to_json (Gen.campaign_specs ~seed leg)))
      [ Gen.Dense; Gen.Paper; Gen.Daemon ]
  in
  String.concat "\n"
    (Array.to_list sweep @ Array.to_list rpc @ Array.to_list arrivals @ specs)

let test_seeded () =
  check "same seed gives byte-identical inputs" (String.equal (inputs 7L) (inputs 7L));
  check "another seed gives other inputs" (not (String.equal (inputs 7L) (inputs 8L)))

let test_cheap_class () =
  let worst =
    List.fold_left
      (fun acc seed ->
        Array.fold_left
          (fun acc (cls, pt) -> if cls = Gen.Cheap then Float.max acc (Gen.rate_ratio pt) else acc)
          acc (Gen.rpc_pool ~seed))
      0. [ 1L; 2L; 3L; 4L; 5L ]
  in
  check (Printf.sprintf "no cheap assess-rpc point has rate ratio >= 0.9 (max %.4f)" worst) (worst < 0.9)

(* The real CLI answers; the expected verdict matches, a spoiled one
   does not. *)
let test_sweep_check () =
  let p = W_sweep.start () in
  let pts = Array.sub (Gen.sweep_points ~seed:3L) 0 64 in
  let pts = List.filter (fun pt -> Gen.rate_ratio pt < 0.5) (Array.to_list pts) in
  let pt = List.hd pts in
  let raw = W_sweep.ask p (Gen.jsonl_of_point pt) in
  W_sweep.finish p;
  let e = Check.verdict_of_assessment (Core.Assessment.assess (Gen.params pt)) in
  check "sweep line matches the in-process verdict" (Check.sweep_line_ok ~line:1 e raw);
  check "a spoiled sweep verdict fails the check"
    (not (Check.sweep_line_ok ~line:1 (Check.spoil_verdict e) raw));
  check "a wrong line number fails the check" (not (Check.sweep_line_ok ~line:2 e raw))

(* The whole assess-rpc workload, briefly: clean, then with one expected
   reply spoiled. *)
let test_rpc_fail_share () =
  Check.corrupt := Check.No_corruption;
  let clean = W_rpc.run ~seed:5L ~seconds:0.5 ~trace:false in
  check
    (Printf.sprintf "assess-rpc: no failures (%d attempted)" clean.Util.attempted)
    (clean.failed = 0 && clean.attempted > 0);
  Check.corrupt := Check.Verdict;
  let spoiled = W_rpc.run ~seed:5L ~seconds:0.5 ~trace:false in
  Check.corrupt := Check.No_corruption;
  check
    (Printf.sprintf "assess-rpc: a spoiled verdict raises fail_share (%d of %d)"
       spoiled.failed spoiled.attempted)
    (spoiled.failed > 0)

let test_journal_check () =
  let spec =
    { (Gen.campaign_specs ~seed:1L Gen.Daemon).(0) with Spec.trials_per_cell = 2 }
  in
  let journal k =
    let path = Util.path (Printf.sprintf "test%d.jsonl" k) in
    ignore (W_campaign.inproc spec ~journal:path);
    path
  in
  let a = journal 0 and b = journal 1 in
  let expected = Util.read_file a in
  check "in-process journals match across runs" (Check.journal_ok ~expected ~path:b);
  Check.corrupt := Check.Journal_byte;
  let spoiled = Check.maybe_spoil_journal 0 expected in
  Check.corrupt := Check.No_corruption;
  check "one flipped journal byte fails the check"
    ((not (String.equal spoiled expected)) && not (Check.journal_ok ~expected:spoiled ~path:b))

(* The daemon leg, briefly: clean, then with one reference journal byte
   flipped. *)
let test_campaign_fail_share () =
  let run () = W_campaign.run ~legs:[ Gen.Daemon ] ~seed:5L ~seconds:0.2 ~trace:false in
  let clean = run () in
  check
    (Printf.sprintf "campaign daemon leg: no failures (%d attempted)" clean.Util.attempted)
    (clean.failed = 0 && clean.attempted > 0);
  Check.corrupt := Check.Journal_byte;
  let spoiled = run () in
  Check.corrupt := Check.No_corruption;
  check
    (Printf.sprintf "campaign daemon leg: a flipped journal byte raises fail_share (%d of %d)"
       spoiled.failed spoiled.attempted)
    (spoiled.failed > 0)

(* A layer a workload should load but does not fails the run. *)
let test_layer_checks () =
  let failed checks =
    let o =
      { Util.attempted = 1; failed = 0; e2e = []; report = []; layers = []; checks }
    in
    (Util.count_checks o).failed
  in
  check "layer checks hold on loaded layers"
    (failed
       (W_sweep.layer_checks ~share:0.99 ~diag_calls:0
       @ W_rpc.layer_checks ~diag_share:0.9
       @ W_campaign.dense_checks ~share_dense:0.96
       @ W_campaign.paper_checks ~share_paper:0.93
       @ W_campaign.daemon_checks ~shards:256 ~leases:256.)
    = 0);
  List.iter
    (fun (name, checks) -> check ("a violated layer check fails: " ^ name) (failed checks = 1))
    [
      ("sweep share", W_sweep.layer_checks ~share:0.3 ~diag_calls:0);
      ("sweep diag", W_sweep.layer_checks ~share:0.99 ~diag_calls:1);
      ("rpc diag share", W_rpc.layer_checks ~diag_share:0.2);
      ("dense executor", W_campaign.dense_checks ~share_dense:0.4);
      ("paper audit", W_campaign.paper_checks ~share_paper:0.4);
      ("daemon leases", W_campaign.daemon_checks ~shards:256 ~leases:0.);
    ]

let () =
  Sut.exe := Sys.argv.(1);
  Util.rm_rf Util.run_dir;
  test_seeded ();
  test_cheap_class ();
  test_sweep_check ();
  test_rpc_fail_share ();
  test_journal_check ();
  test_campaign_fail_share ();
  test_layer_checks ();
  Util.rm_rf Util.run_dir;
  if !failures > 0 then exit 1
