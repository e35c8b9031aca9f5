(* The benchmark generator.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--main PATH]

   Runs one workload (assess-sweep, assess-rpc or campaign) against the
   [bin/main.exe] at PATH, prints a human report, and as its last line
   one JSON object: correct/attempted/failed plus the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1). *)

open Perfbench

(* Every per-layer metric, in BENCHMARK.json order.  A traced run
   reports all of them; a layer its workload does not load reads 0. *)
let per_layer =
  [
    ("confirmation.assess_checked_ms_p50", "ms");
    ("confirmation.assess_checked_ms_p95", "ms");
    ("confirmation.share", "ratio");
    ("confirmation.depth_limited", "count");
    ("assessment.assess_ms_p50", "ms");
    ("assessment.assess_ms_p95", "ms");
    ("json.parse_us", "us");
    ("json.render_us", "us");
    ("sweep.query_p50_ms", "ms");
    ("suffix_chain.diag_calls", "count");
    ("suffix_chain.diag_ms_p50", "ms");
    ("suffix_chain.diag_ms_p95", "ms");
    ("suffix_chain.diag_share_enumerable", "ratio");
    ("rpc.service_ms_p50", "ms");
    ("rpc.service_ms_p99", "ms");
    ("rpc.wait_ms_p99", "ms");
    ("rpc.p50_ms", "ms");
    ("rpc.p99_ms", "ms");
    ("assessment.pp_us", "us");
    ("wire.encode_us", "us");
    ("wire.decode_us", "us");
    ("wire.reply_bytes", "bytes");
    ("rpc.unix_p50_ms", "ms");
    ("rpc.tcp_p50_ms", "ms");
    ("rpc.gen_late_ms_p99", "ms");
    ("execution.run_s", "s");
    ("execution.share_dense", "ratio");
    ("execution.processed_rounds", "count");
    ("execution.phase_delivery_s", "s");
    ("execution.phase_mining_s", "s");
    ("execution.phase_adversary_s", "s");
    ("binomial.sample_ns", "ns");
    ("aggregate.of_execution_s", "s");
    ("aggregate.share_paper", "ratio");
    ("execution.snapshots", "count");
    ("serve.fold_s", "s");
    ("serve.leases_granted", "count");
    ("serve.frames_in", "count");
    ("serve.frames_out", "count");
    ("journal.append_s", "s");
    ("journal.fsync_s", "s");
    ("campaign.inproc_shards_per_s", "1/s");
    ("campaign.dense_trials_per_s", "1/s");
    ("campaign.paper_trials_per_s", "1/s");
    ("campaign.daemon_shards_per_s", "1/s");
    ("campaign.daemon_turnaround_ms", "ms");
    ("trace.overhead_share", "ratio");
  ]

let () =
  (* Terminated from outside: still stop and reap every child. *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 143)))
    [ Sys.sigterm; Sys.sigint ];
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "W  assess-sweep | assess-rpc | campaign" );
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time per run");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--main", Arg.Set_string Sut.exe, "PATH  the bin/main.exe under test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists !Sut.exe) then begin
    prerr_endline ("perfbench: no program under test at " ^ !Sut.exe);
    exit 2
  end;
  let seed = Int64.of_int !seed and seconds = !seconds and trace = !trace = 1 in
  Util.rm_rf Util.run_dir;
  let run =
    match !workload with
    | "assess-sweep" -> W_sweep.run
    | "assess-rpc" -> W_rpc.run
    | "campaign" -> W_campaign.run ~legs:W_campaign.all_legs
    | w ->
      prerr_endline ("perfbench: unknown workload " ^ w);
      exit 2
  in
  let o = Util.count_checks (run ~seed ~seconds ~trace) in
  Printf.printf "workload %s  seed %Ld  seconds %g  trace %b\n" !workload seed seconds trace;
  List.iter print_endline o.Util.report;
  List.iter
    (fun (c, ok) -> Printf.printf "layer check          %-44s %s\n" c (if ok then "holds" else "FAILS"))
    o.checks;
  let fail_share = float_of_int o.failed /. float_of_int (max 1 o.attempted) in
  Printf.printf "fail_share           %.6f  (%d failed of %d attempted)\n" fail_share
    o.failed o.attempted;
  List.iter
    (fun (x : Util.metric) ->
      if not (List.mem_assoc x.name per_layer) then
        failwith ("perfbench: layer metric missing from the per-layer list: " ^ x.name))
    o.layers;
  let metrics =
    if not trace then o.e2e
    else
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun (x : Util.metric) -> x.name = name) o.layers with
          | Some x -> x
          | None -> Util.m name unit_ 0.)
        per_layer
  in
  if trace then
    List.iter
      (fun (x : Util.metric) -> Printf.printf "  %-40s %14.6g %s\n" x.name x.value x.unit_)
      metrics;
  (* A statistic of an empty sample (nan) means nothing was sampled. *)
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (x : Util.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (num x.value)
              x.unit_)
          metrics))
