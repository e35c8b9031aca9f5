open Helpers
module Tel = Nakamoto_telemetry
module Counter = Tel.Counter
module Histogram = Tel.Histogram
module Span = Tel.Span
module Registry = Tel.Registry
module Export = Tel.Export
module Sim = Nakamoto_sim
module Trace = Nakamoto_sim.Trace
module Campaign = Nakamoto_campaign

(* --- Counters ------------------------------------------------------ *)

let test_counter_basics () =
  let c = Counter.create () in
  Counter.incr c;
  Counter.add c 4;
  check_int "value accumulates" 5 (Counter.value c);
  let s = Counter.snapshot c in
  Counter.incr c;
  check_int "snapshot is immutable" 5 s;
  check_int "instrument keeps counting" 6 (Counter.value c);
  check_int "merge is addition" 11 (Counter.merge s (Counter.snapshot c));
  check_int "empty is the identity" 5 (Counter.merge Counter.empty s);
  check_raises_invalid "negative increment rejected" (fun () ->
      Counter.add c (-1))

(* --- Histograms ---------------------------------------------------- *)

let log2_bucket v =
  let h = Histogram.log2 () in
  Histogram.observe h v;
  let s = Histogram.snapshot h in
  let found = ref (-1) in
  Array.iteri
    (fun i c -> if c = 1 then found := i)
    s.Histogram.s_counts;
  !found

let test_log2_bucket_placement () =
  (* Bucket 0: everything below 2^-32, zero and negatives included. *)
  check_int "zero underflows" 0 (log2_bucket 0.);
  check_int "negative underflows" 0 (log2_bucket (-3.));
  check_int "2^-33 underflows" 0 (log2_bucket (ldexp 1. (-33)));
  (* Bucket i in 1..64 holds [2^(i-33), 2^(i-32)). *)
  check_int "2^-32 opens bucket 1" 1 (log2_bucket (ldexp 1. (-32)));
  check_int "0.5 lands in bucket 32" 32 (log2_bucket 0.5);
  check_int "0.999 stays in bucket 32" 32 (log2_bucket 0.999);
  check_int "1.0 opens bucket 33" 33 (log2_bucket 1.0);
  check_int "1.5 stays in bucket 33" 33 (log2_bucket 1.5);
  check_int "2.0 opens bucket 34" 34 (log2_bucket 2.0);
  check_int "2^31 lands in bucket 64" 64 (log2_bucket (ldexp 1. 31));
  (* Bucket 65: 2^32 and beyond, infinity saturating. *)
  check_int "2^32 overflows" 65 (log2_bucket (ldexp 1. 32));
  check_int "infinity saturates" 65 (log2_bucket infinity);
  let h = Histogram.log2 () in
  check_raises_invalid "NaN rejected" (fun () -> Histogram.observe h nan)

let test_fixed_bucket_placement () =
  let h = Histogram.fixed ~bounds:[| 1.; 2.; 4. |] in
  List.iter (Histogram.observe h) [ 0.5; 1.0; 1.5; 2.0; 3.0; 4.0; 5.0 ];
  let s = Histogram.snapshot h in
  (* Cumulative-le semantics: bucket i counts v <= bounds.(i). *)
  check_true "counts per bucket" (s.Histogram.s_counts = [| 2; 2; 2; 1 |]);
  check_int "total count" 7 s.Histogram.s_count;
  close "sum tracked" 17.0 s.Histogram.s_sum;
  close "min tracked" 0.5 s.Histogram.s_min;
  close "max tracked" 5.0 s.Histogram.s_max;
  check_raises_invalid "empty bounds rejected" (fun () ->
      ignore (Histogram.fixed ~bounds:[||]));
  check_raises_invalid "non-increasing bounds rejected" (fun () ->
      ignore (Histogram.fixed ~bounds:[| 1.; 1. |]));
  check_raises_invalid "non-finite bound rejected" (fun () ->
      ignore (Histogram.fixed ~bounds:[| 1.; infinity |]))

let test_histogram_merge () =
  let a = Histogram.fixed ~bounds:[| 1.; 2. |] in
  let b = Histogram.fixed ~bounds:[| 1.; 2. |] in
  Histogram.observe a 0.5;
  Histogram.observe a 3.0;
  Histogram.observe b 1.5;
  let sa = Histogram.snapshot a and sb = Histogram.snapshot b in
  let m = Histogram.merge sa sb in
  check_true "counts add pointwise" (m.Histogram.s_counts = [| 1; 1; 1 |]);
  check_int "count adds" 3 m.Histogram.s_count;
  close "sum adds" 5.0 m.Histogram.s_sum;
  close "min is the lattice meet" 0.5 m.Histogram.s_min;
  close "max is the lattice join" 3.0 m.Histogram.s_max;
  check_true "empty is an identity"
    (Histogram.merge Histogram.empty sa = sa
    && Histogram.merge sa Histogram.empty = sa);
  let other = Histogram.snapshot (Histogram.fixed ~bounds:[| 1.; 3. |]) in
  check_raises_invalid "different bounds rejected" (fun () ->
      ignore (Histogram.merge sa other));
  let l = Histogram.snapshot (Histogram.log2 ()) in
  check_raises_invalid "fixed vs log2 rejected" (fun () ->
      ignore (Histogram.merge sa l))

let test_histogram_quantile () =
  let h = Histogram.fixed ~bounds:[| 1.; 2.; 4.; 8. |] in
  (* 10 observations: 5 at 1.0, 4 at 2.0, 1 at 8.0. *)
  for _ = 1 to 5 do Histogram.observe h 1.0 done;
  for _ = 1 to 4 do Histogram.observe h 2.0 done;
  Histogram.observe h 8.0;
  let s = Histogram.snapshot h in
  close "median in the first bucket" 1.0 (Histogram.quantile s 0.5);
  close "p90 in the second bucket" 2.0 (Histogram.quantile s 0.9);
  close "p100 clamps to the observed max" 8.0 (Histogram.quantile s 1.0);
  close "p0 clamps to the observed min" 1.0 (Histogram.quantile s 0.);
  check_true "empty snapshot yields nan"
    (Float.is_nan (Histogram.quantile Histogram.empty 0.5));
  check_raises_invalid "q outside [0,1] rejected" (fun () ->
      ignore (Histogram.quantile s 1.5))

(* --- Spans --------------------------------------------------------- *)

let test_span_with_injected_clock () =
  let now = ref 0. in
  let sp = Span.create ~clock:(fun () -> !now) () in
  let began = Span.start sp in
  now := 0.25;
  Span.stop sp began;
  let v = Span.time sp (fun () -> now := !now +. 1.0; 42) in
  check_int "time returns the thunk's value" 42 v;
  Span.record sp 2.0;
  let s = Span.snapshot sp in
  check_int "three durations recorded" 3 s.Histogram.s_count;
  close "durations sum" 3.25 s.Histogram.s_sum;
  close "min duration" 0.25 s.Histogram.s_min;
  close "max duration" 2.0 s.Histogram.s_max;
  (* time records even when the thunk raises. *)
  (try Span.time sp (fun () -> failwith "boom") with Failure _ -> ());
  check_int "raising thunk still recorded" 4 (Span.snapshot sp).Histogram.s_count

(* --- Registry ------------------------------------------------------ *)

let test_registry_find_or_create () =
  let r = Registry.create ~clock:(fun () -> 0.) () in
  let c1 = Registry.counter r "hits_total" in
  let c2 = Registry.counter r "hits_total" in
  Counter.incr c1;
  check_int "same key, same instrument" 1 (Counter.value c2);
  let lbl = Registry.counter r ~labels:[ ("kind", "a") ] "hits_total" in
  Counter.add lbl 5;
  check_int "labelled twin is distinct" 1 (Counter.value c1);
  (* Labels are canonicalized by sorting, so order cannot split a key. *)
  let h1 =
    Registry.log2_histogram r
      ~labels:[ ("b", "2"); ("a", "1") ]
      "lat_seconds"
  in
  let h2 =
    Registry.log2_histogram r
      ~labels:[ ("a", "1"); ("b", "2") ]
      "lat_seconds"
  in
  Histogram.observe h1 1.0;
  check_int "label order is canonical" 1 (Histogram.snapshot h2).Histogram.s_count;
  check_raises_invalid "type conflict rejected" (fun () ->
      ignore (Registry.span r "hits_total"));
  ignore (Registry.fixed_histogram r ~bounds:[| 1.; 2. |] "depth");
  check_raises_invalid "bounds conflict rejected" (fun () ->
      ignore (Registry.fixed_histogram r ~bounds:[| 1.; 3. |] "depth"));
  check_raises_invalid "layout conflict rejected" (fun () ->
      ignore (Registry.log2_histogram r "depth"));
  check_raises_invalid "invalid metric name rejected" (fun () ->
      ignore (Registry.counter r "hits.total"));
  check_raises_invalid "invalid label name rejected" (fun () ->
      ignore (Registry.counter r ~labels:[ ("1bad", "x") ] "ok_total"));
  check_raises_invalid "duplicate label rejected" (fun () ->
      ignore (Registry.counter r ~labels:[ ("a", "1"); ("a", "2") ] "ok_total"))

let test_registry_snapshot_and_merge () =
  let r = Registry.create ~clock:(fun () -> 0.) () in
  Counter.add (Registry.counter r "b_total") 2;
  Counter.add (Registry.counter r "a_total") 1;
  Histogram.observe (Registry.log2_histogram r "lat") 1.0;
  let snap = Registry.snapshot r in
  let names =
    List.map
      (fun ((k : Registry.Snapshot.key), _) -> k.name)
      (Registry.Snapshot.entries snap)
  in
  check_true "entries in key order" (names = [ "a_total"; "b_total"; "lat" ]);
  (match Registry.Snapshot.find snap "a_total" with
  | Some (Registry.Snapshot.Counter 1) -> ()
  | _ -> Alcotest.fail "find a_total");
  check_true "find misses honestly"
    (Registry.Snapshot.find snap "zzz" = None);
  (* Merge: disjoint keys union, shared keys combine. *)
  let r2 = Registry.create ~clock:(fun () -> 0.) () in
  Counter.add (Registry.counter r2 "a_total") 10;
  Counter.add (Registry.counter r2 "c_total") 3;
  let m = Registry.Snapshot.merge snap (Registry.snapshot r2) in
  (match Registry.Snapshot.find m "a_total" with
  | Some (Registry.Snapshot.Counter 11) -> ()
  | _ -> Alcotest.fail "shared key merged");
  (match Registry.Snapshot.find m "c_total" with
  | Some (Registry.Snapshot.Counter 3) -> ()
  | _ -> Alcotest.fail "disjoint key unioned");
  check_int "merged entry count" 4 (List.length (Registry.Snapshot.entries m));
  (* Same name, different instrument type: merge must refuse. *)
  let r3 = Registry.create ~clock:(fun () -> 0.) () in
  ignore (Registry.span r3 "a_total");
  check_raises_invalid "type mismatch across snapshots rejected" (fun () ->
      ignore (Registry.Snapshot.merge snap (Registry.snapshot r3)))

(* --- Exports ------------------------------------------------------- *)

let test_export_shapes () =
  let r = Registry.create ~clock:(fun () -> 0.) () in
  Counter.add (Registry.counter r "events_total") 7;
  let h =
    Registry.fixed_histogram r
      ~labels:[ ("stage", "x\"y" ) ]
      ~bounds:[| 1.; 2. |] "depth"
  in
  Histogram.observe h 1.5;
  let snap = Registry.snapshot r in
  let prom = Export.prometheus snap in
  List.iter
    (fun affix ->
      check_true (Printf.sprintf "prom contains %S" affix)
        (contains_substring ~affix prom))
    [
      "# TYPE depth histogram";
      "# TYPE events_total counter";
      "events_total 7";
      "depth_bucket{stage=\"x\\\"y\",le=\"2\"} 1";
      "depth_bucket{stage=\"x\\\"y\",le=\"+Inf\"} 1";
      "depth_sum{stage=\"x\\\"y\"} 1.5";
      "depth_count{stage=\"x\\\"y\"} 1";
    ];
  let jsonl = Export.jsonl ~emitted_at:12.5 snap in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  check_int "meta line plus one event per instrument" 3 (List.length lines);
  check_true "meta line carries the stamp"
    (contains_substring ~affix:"\"emitted_at\":12.5" (List.nth lines 0));
  check_true "counter event"
    (contains_substring
       ~affix:"{\"name\":\"events_total\",\"labels\":{},\"type\":\"counter\",\"value\":7}"
       jsonl);
  check_true "histogram event carries sparse buckets"
    (contains_substring ~affix:"\"buckets\":[[1,1]]" jsonl);
  check_true "fixed kind carries its bounds"
    (contains_substring ~affix:"\"kind\":\"fixed\",\"bounds\":[1,2]" jsonl);
  (* Equal snapshots produce equal bytes — the golden check's premise. *)
  check_true "prometheus is a pure function of the snapshot"
    (Export.prometheus snap = prom)

(* --- Executor differential: telemetry must not move the simulation --- *)

let capture_with ?telemetry cfg =
  let t = Trace.create () in
  let on_round (r : Sim.Execution.round_report) =
    Trace.record t
      {
        Trace.round = r.round_number;
        honest_blocks = r.honest_mined;
        adversary_blocks = r.adversary_successes;
        releases = r.releases_issued;
        best_height = r.best_height;
        reorg_depth = r.reorg_depth;
      }
  in
  let res = Sim.Execution.run ~on_round ?telemetry cfg in
  (res, Trace.digest t)

let check_run_identical name cfg =
  let plain, plain_digest = capture_with cfg in
  let reg = Registry.create () in
  let instrumented, instr_digest = capture_with ~telemetry:reg cfg in
  let fields (r : Sim.Execution.result) =
    ( r.honest_blocks, r.adversary_blocks, r.h_rounds, r.h1_rounds,
      r.convergence_opportunities, r.max_reorg_depth, r.adversary_releases,
      r.messages_sent, r.orphans_remaining )
  in
  check_true (name ^ ": summary statistics identical")
    (fields plain = fields instrumented);
  check_true (name ^ ": final tips identical")
    (plain.final_tips = instrumented.final_tips);
  check_true (name ^ ": snapshot cadence identical")
    (List.map (fun (s : Sim.Execution.snapshot) -> (s.round, s.tips))
       plain.snapshots
    = List.map (fun (s : Sim.Execution.snapshot) -> (s.round, s.tips))
        instrumented.snapshots);
  check_true (name ^ ": trace digest identical") (plain_digest = instr_digest);
  (* And the registry really observed the run. *)
  let snap = Registry.snapshot reg in
  (match Registry.Snapshot.find snap "sim_rounds_total" with
  | Some (Registry.Snapshot.Counter n) ->
    check_int (name ^ ": every round counted") cfg.Sim.Config.rounds n
  | _ -> Alcotest.fail "sim_rounds_total missing");
  match Registry.Snapshot.find snap "sim_honest_blocks_total" with
  | Some (Registry.Snapshot.Counter n) ->
    check_int (name ^ ": honest blocks counted") plain.honest_blocks n
  | _ -> Alcotest.fail "sim_honest_blocks_total missing"

let test_execution_differential_exact () =
  check_run_identical "exact"
    { (Sim.Scenarios.attack_zone ~seed:11L ~nu:0.3) with Sim.Config.rounds = 300 }

let test_execution_differential_aggregate () =
  check_run_identical "aggregate"
    {
      (Sim.Scenarios.attack_zone ~seed:11L ~nu:0.3) with
      Sim.Config.rounds = 300;
      mining_mode = Sim.Config.Aggregate;
    }

(* A sparse private-chain cell, so most rounds fall inside skipped empty
   spans: [sim_rounds_total] reaches [config.rounds] only if every
   fast-forward adds the rounds it stands for. *)
let test_execution_differential_skip () =
  let cfg =
    {
      (Sim.Scenarios.at_c ~seed:11L ~nu:0.3 ~c:4. ~rounds:2000) with
      Sim.Config.mining_mode = Sim.Config.Skip;
    }
  in
  check_true "skip lane skips rounds"
    ((Sim.Execution.run cfg).processed_rounds < cfg.rounds);
  check_run_identical "skip" cfg

(* --- Campaign telemetry ------------------------------------------- *)

let tiny_spec =
  {
    Campaign.Spec.default with
    Campaign.Spec.ps = [ 0.02 ];
    ns = [ 8 ];
    deltas = [ 2 ];
    nus = [ 0.1; 0.3 ];
    trials_per_cell = 4;
    rounds = 120;
    seed = 77L;
    shard_size = 1;
  }

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let with_temp_dir tag f =
  let dir = Filename.temp_file ("telemetry_" ^ tag) "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let counter_value snap name =
  match Registry.Snapshot.find snap name with
  | Some (Registry.Snapshot.Counter n) -> n
  | _ -> Alcotest.failf "counter %s missing from the campaign snapshot" name

let test_campaign_telemetry_invariants () =
  with_temp_dir "campaign" (fun dir ->
      let outcome =
        Campaign.Campaign.run ~jobs:2 ~telemetry:dir
          ~log:(fun _ -> ())
          tiny_spec
      in
      let snap =
        match outcome.Campaign.Campaign.telemetry with
        | Some s -> s
        | None -> Alcotest.fail "outcome.telemetry absent despite ~telemetry"
      in
      (* Counts that must hold at any worker count. *)
      let trials = Campaign.Spec.trial_count tiny_spec in
      check_int "every simulated round counted"
        (trials * tiny_spec.Campaign.Spec.rounds)
        (counter_value snap "sim_rounds_total");
      check_int "no retries in a clean run" 0
        (counter_value snap "campaign_shard_retries_total");
      check_int "no salvage in a clean run" 0
        (counter_value snap "campaign_shard_salvaged_total");
      (* Shard spans: one duration per shard, across however many
         domain labels the scheduler produced. *)
      let shard_count =
        List.fold_left
          (fun acc (_, v) ->
            match v with
            | Registry.Snapshot.Span h -> acc + h.Histogram.s_count
            | _ -> acc)
          0
          (Registry.Snapshot.find_all snap "campaign_shard_seconds")
      in
      check_int "one shard span per shard" trials shard_count;
      (* Files landed and carry the headline instruments. *)
      let prom = read_file (Filename.concat dir "telemetry.prom") in
      check_true "prom exported"
        (contains_substring ~affix:"campaign_shard_seconds_bucket{domain="
           prom);
      check_true "prom carries executor metrics"
        (contains_substring ~affix:"# TYPE sim_rounds_total counter" prom);
      let jsonl = read_file (Filename.concat dir "telemetry.jsonl") in
      check_true "jsonl meta line"
        (contains_substring ~affix:"{\"telemetry\":\"nakamoto\",\"version\":1"
           jsonl))

let test_campaign_telemetry_does_not_move_results () =
  let journal tag telemetry =
    let path = Filename.temp_file ("campaign_tel_" ^ tag) ".jsonl" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () ->
        (match telemetry with
        | None ->
          ignore
            (Campaign.Campaign.run ~jobs:2 ~journal_path:path
               ~log:(fun _ -> ())
               tiny_spec)
        | Some dir ->
          ignore
            (Campaign.Campaign.run ~jobs:2 ~journal_path:path ~telemetry:dir
               ~log:(fun _ -> ())
               tiny_spec));
        read_file path)
  in
  let plain = journal "off" None in
  with_temp_dir "on" (fun dir ->
      let instrumented = journal "on" (Some dir) in
      check_true "journal bytes identical with and without telemetry"
        (plain = instrumented))

let suite =
  [
    case "counter basics" test_counter_basics;
    case "log2 bucket placement" test_log2_bucket_placement;
    case "fixed bucket placement" test_fixed_bucket_placement;
    case "histogram merge" test_histogram_merge;
    case "histogram quantile" test_histogram_quantile;
    case "span with injected clock" test_span_with_injected_clock;
    case "registry find-or-create" test_registry_find_or_create;
    case "registry snapshot and merge" test_registry_snapshot_and_merge;
    case "export shapes" test_export_shapes;
    case "execution differential (exact)" test_execution_differential_exact;
    case "execution differential (aggregate)"
      test_execution_differential_aggregate;
    case "execution differential (skip)" test_execution_differential_skip;
    case "campaign telemetry invariants" test_campaign_telemetry_invariants;
    case "campaign results unmoved by telemetry"
      test_campaign_telemetry_does_not_move_results;
  ]
