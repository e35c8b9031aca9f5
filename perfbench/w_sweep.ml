(* assess-sweep: a closed loop over one [assess --stdin-jsonl] process.
   Each query line is written only after the previous answer arrived,
   the way an analyst's script pipes a sweep through the CLI. *)

module Core = Nakamoto_core
module Json = Nakamoto_campaign.Json

type proc = { pid : int; oc : out_channel; ic : in_channel }

let start () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Sut.spawn ~stdin:in_r ~stdout:out_w [ "assess"; "--stdin-jsonl" ] in
  Unix.close in_r;
  Unix.close out_w;
  { pid; oc = Unix.out_channel_of_descr in_w; ic = Unix.in_channel_of_descr out_r }

let ask p line =
  output_string p.oc line;
  output_char p.oc '\n';
  flush p.oc;
  input_line p.ic

let finish p =
  close_out_noerr p.oc;
  close_in_noerr p.ic;
  ignore (Sut.wait p.pid)

(* One set-up sample (spawn to first answer) every [setup_every]
   queries, so the samples spread over the whole run. *)
let setup_every = 32

(* The sweep must load the depth search and never reach the
   suffix-chain diagnostic (Delta is not enumerable). *)
let layer_checks ~share ~diag_calls =
  [ ("confirmation.share > 0.5", share > 0.5); ("suffix_chain.diag_calls = 0", diag_calls = 0) ]

let run ~seed ~seconds ~trace =
  let attempted = ref 0 and failed = ref 0 in
  let tally ok =
    incr attempted;
    if not ok then incr failed
  in
  let pts = Gen.sweep_points ~seed in
  let reqs = Array.map Gen.jsonl_of_point pts in
  (* Expected verdicts, once, before timing.  The traced run times the
     layers on these same calls: the assessment, the confirmation
     search inside it, and the CLI's JSON work per line. *)
  let conf_ms = Util.Sample.create () and assess_ms = Util.Sample.create () in
  let parse_us = Util.Sample.create () and render_us = Util.Sample.create () in
  let depth_limited = ref 0 and suffix_diag = ref 0 in
  let expected =
    Array.mapi
      (fun i pt ->
        let params = Gen.params pt in
        let t0 = Util.now () in
        let a = Core.Assessment.assess params in
        let t1 = Util.now () in
        let v = Check.maybe_spoil Check.spoil_verdict i (Check.verdict_of_assessment a) in
        if trace then begin
          Util.Sample.add assess_ms ((t1 -. t0) *. 1e3);
          let t2 = Util.now () in
          (match Core.Confirmation.assess_checked params with
          | Error (Core.Confirmation.Depth_limited _) -> incr depth_limited
          | _ -> ());
          Util.Sample.add conf_ms ((Util.now () -. t2) *. 1e3);
          if a.suffix_diagnostics <> None then incr suffix_diag;
          let t3 = Util.now () in
          let j = Json.parse reqs.(i) in
          let t4 = Util.now () in
          ignore (Json.render j);
          let t5 = Util.now () in
          Util.Sample.add parse_us ((t4 -. t3) *. 1e6);
          Util.Sample.add render_us ((t5 -. t4) *. 1e6)
        end;
        v)
      pts
  in
  let probe =
    Option.value ~default:0
      (Seq.find (fun i -> Gen.rate_ratio pts.(i) < 0.5) (Seq.init (Array.length pts) Fun.id))
  in
  let setup = Util.Sample.create () in
  let setup_one () =
    let t0 = Util.now () in
    let p = start () in
    let raw = ask p reqs.(probe) in
    Util.Sample.add setup (Util.now () -. t0);
    tally (Check.sweep_line_ok ~line:1 expected.(probe) raw);
    finish p
  in
  (* The timed closed loop: the pass again and again, whole passes,
     stopping before a pass that would overrun [seconds].  The CLI has
     no cache, so a repeated pass costs what a fresh one of the same
     composition would. *)
  let seconds = if trace then seconds /. 2. else seconds in
  let p = start () in
  let lat = Util.Sample.create () in
  let busy = ref 0. and last_pass = ref 0. and passes = ref 0 and line = ref 0 in
  while !passes = 0 || !busy +. !last_pass <= seconds do
    let pass_busy = ref 0. in
    Array.iteri
      (fun i req ->
        if i mod setup_every = 0 then setup_one ();
        let t0 = Util.now () in
        let raw = ask p req in
        let dt = Util.now () -. t0 in
        pass_busy := !pass_busy +. dt;
        Util.Sample.add lat dt;
        incr line;
        tally (Check.sweep_line_ok ~line:!line expected.(i) raw))
      reqs;
    busy := !busy +. !pass_busy;
    last_pass := !pass_busy;
    incr passes
  done;
  finish p;
  let lat = Util.Sample.to_array lat in
  let n = Array.length lat in
  let qps = float_of_int n /. !busy in
  let p50 = Util.median lat *. 1e3 in
  let tq = Util.tail_q n in
  let setup = Util.Sample.to_array setup in
  let setup_s = Util.median setup in
  let layers, checks, trace_report =
    if not trace then ([], [], [])
    else
      let ca = Util.Sample.to_array conf_ms and aa = Util.Sample.to_array assess_ms in
      let share = Util.sum ca /. Util.sum aa in
      let n_pts = Array.length ca in
      ( [
          Util.m "confirmation.assess_checked_ms_p50" "ms" (Util.median ca);
          Util.m "confirmation.assess_checked_ms_p95" "ms" (Util.quantile ca 0.95);
          Util.m "confirmation.share" "ratio" share;
          Util.m "confirmation.depth_limited" "count" (float_of_int !depth_limited);
          Util.m "assessment.assess_ms_p50" "ms" (Util.median aa);
          Util.m "assessment.assess_ms_p95" "ms" (Util.quantile aa 0.95);
          Util.m "json.parse_us" "us" (Util.median (Util.Sample.to_array parse_us));
          Util.m "json.render_us" "us" (Util.median (Util.Sample.to_array render_us));
          Util.m "suffix_chain.diag_calls" "count" (float_of_int !suffix_diag);
          Util.m "sweep.query_p50_ms" "ms" p50;
          (* The CLI carries no tracing: layer timing happens outside the
             timed loop, so the loop itself runs exactly as untraced. *)
          Util.m "trace.overhead_share" "ratio" 0.;
        ],
        layer_checks ~share ~diag_calls:!suffix_diag,
        [
          Printf.sprintf "layer tails          p95 over %d points, %d beyond" n_pts
            (n_pts - int_of_float (Float.ceil (0.95 *. float_of_int n_pts)));
        ] )
  in
  {
    Util.attempted = !attempted;
    failed = !failed;
    e2e = [ Util.m "setup_s" "s" setup_s; Util.m "ops_per_s" "1/s" qps ];
    report =
      [
        Printf.sprintf "sweep_qps            %.3f q/s  (%d queries, %d passes of %d, %.2f s busy)" qps n
          !passes (Array.length pts) !busy;
        Printf.sprintf "query latency        p50 %.4f ms, p%g %.2f ms (n=%d)" p50 (tq *. 100.)
          (Util.quantile lat tq *. 1e3) n;
        Printf.sprintf "setup_s              %.4f s  (median of %d spawns to first answer)" setup_s
          (Array.length setup);
      ]
      @ trace_report;
    layers;
    checks;
  }
