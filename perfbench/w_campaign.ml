(* campaign: one closed loop of rounds, each running one campaign of
   every leg in turn.  The dense and paper legs run one-trial campaigns
   in process through [Campaign.run ~jobs:1]; the daemon leg submits the
   tiny-shard spec to a fresh [serve] with one [worker] over a Unix
   socket, both real processes.  The legs' specs are sized so each takes
   about a third of a round: a leg twice as slow makes the round a third
   slower.  Every journal is compared byte for byte with the in-process
   journal of the same spec, computed before timing starts. *)

module Campaign = Nakamoto_campaign.Campaign
module Spec = Nakamoto_campaign.Spec
module Aggregate = Nakamoto_campaign.Aggregate
module Sim = Nakamoto_sim
module Tel = Nakamoto_telemetry
module Msg = Nakamoto_wire.Message

let quiet _ = ()

let inproc ?telemetry spec ~journal =
  Campaign.run ~jobs:1 ~journal_path:journal ~log:quiet ?telemetry spec

(* Spawn to handshake: the set-up a submitting client pays. *)
let start_daemon ~tag ~telemetry =
  let sock = Util.path ("c" ^ tag ^ ".sock") in
  let err = Util.path ("c" ^ tag ^ ".err") in
  let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let tel = Util.path ("c" ^ tag ^ ".tel") in
  let t0 = Util.now () in
  let pid =
    Sut.spawn ~stderr:errfd
      ([ "serve"; "--socket"; sock; "--max-campaigns"; "1" ]
      @ if telemetry then [ "--telemetry"; tel ] else [])
  in
  Unix.close errfd;
  let fd = Sut.connect (Sut.Unix_path sock) in
  let ch = Sut.handshake fd in
  (pid, sock, ch, tel, Util.now () -. t0)

(* Shards per lease request, as the repository's SERVESCALE bench runs
   its workers: every request is a cross-process round trip whose
   wake-up latency on a small shared host drifts from minute to minute. *)
let lease_batch = 2

type daemon_op = {
  d_setup : float;
  d_elapsed : float;  (** submit to Done: the turnaround a client waits *)
  d_ok : bool;
  d_prom : string option;
}

let daemon_op ~tag ~telemetry spec ~expected =
  let pid, sock, ch, tel, setup = start_daemon ~tag ~telemetry in
  let journal = Util.path ("daemon" ^ tag ^ ".jsonl") in
  let t0 = Util.now () in
  Msg.send ch
    (Msg.Submit_campaign { Msg.sub_spec = spec; sub_journal = Some journal; sub_resume = false });
  let worker = Sut.spawn [ "worker"; "--connect"; sock; "--lease-batch"; string_of_int lease_batch ] in
  let rec loop () =
    match Msg.recv ~timeout:60. ch with
    | `Msg (Msg.Progress _) -> loop ()
    | `Msg (Msg.Done _) -> true
    | _ -> false
  in
  let done_ok = loop () in
  let elapsed = Util.now () -. t0 in
  (try Unix.close (Nakamoto_wire.Frame.Channel.fd ch) with Unix.Unix_error _ -> ());
  ignore (Sut.wait pid);
  ignore (Sut.wait worker);
  let prom =
    if telemetry then
      try Some (Util.read_file (Filename.concat tel "telemetry.prom")) with Sys_error _ -> None
    else None
  in
  {
    d_setup = setup;
    d_elapsed = elapsed;
    d_ok = done_ok && Check.journal_ok ~expected ~path:journal;
    d_prom = prom;
  }

(* One leg's share of the closed loop. *)
type leg_measured = {
  leg : Gen.leg;
  op_s : float array;  (** seconds per campaign, set-up excluded *)
  proms : string list;
}

(* Trials (in-process legs) or shards (daemon leg) per second, at the
   leg's median campaign time. *)
let leg_rate ~specs l =
  float_of_int (Spec.trial_count specs.(0)) /. Util.median l.op_s

type measured = {
  rounds : int;  (** one campaign of every leg each *)
  setup : float array;  (** the set-up of one campaign of every leg *)
  legs : leg_measured list;
  attempted : int;
  failed : int;
}

(* The set-up of an in-process campaign: the same spec cut to one round,
   so everything but the rounds themselves — spec expansion, the journal
   header and its fsync, the executor's state, the audit — from the call
   to the fsynced journal. *)
let inproc_setup sp =
  let journal = Util.path "setup.jsonl" in
  let t0 = Util.now () in
  ignore (inproc { sp with Spec.rounds = 1 } ~journal);
  Util.now () -. t0

(* The timed closed loop.  One round runs one campaign of every leg in
   turn, cycling through each leg's specs, until the rounds have run
   [seconds]; each campaign also takes one set-up sample, so the samples
   spread over the whole run.  A leg's rate is taken at its median
   campaign time: the host's slow spells move a few campaigns, not the
   figures. *)
let measure ~legs ~specs ~seconds ~telemetry ~expected =
  let attempted = ref 0 and failed = ref 0 in
  let tally ok =
    incr attempted;
    if not ok then incr failed
  in
  let setup = Util.Sample.create () in
  let samples = List.map (fun leg -> (leg, Util.Sample.create (), ref [])) legs in
  let one_campaign k (leg, times, proms) =
    let specs = specs leg in
    let sp = specs.(k mod Array.length specs) in
    let expected = expected leg k in
    let dt, st =
      match leg with
      | Gen.Dense | Gen.Paper ->
        let st = inproc_setup sp in
        let journal = Util.path (Printf.sprintf "%s%d.jsonl" (Gen.leg_name leg) k) in
        let telemetry = if telemetry then Some (Util.path "inproc.tel") else None in
        let t0 = Util.now () in
        ignore (inproc ?telemetry sp ~journal);
        let dt = Util.now () -. t0 in
        tally (Check.journal_ok ~expected ~path:journal);
        (dt, st)
      | Gen.Daemon ->
        let op = daemon_op ~tag:(string_of_int k) ~telemetry sp ~expected in
        tally op.d_ok;
        Option.iter (fun p -> proms := p :: !proms) op.d_prom;
        (op.d_elapsed, op.d_setup)
    in
    Util.Sample.add times dt;
    (dt, st)
  in
  let busy = ref 0. and k = ref 0 in
  while !busy < seconds do
    let dt, st =
      List.fold_left
        (fun (dt, st) l ->
          let d, s = one_campaign !k l in
          (dt +. d, st +. s))
        (0., 0.) samples
    in
    busy := !busy +. dt;
    Util.Sample.add setup st;
    incr k
  done;
  {
    rounds = !k;
    setup = Util.Sample.to_array setup;
    legs =
      List.map
        (fun (leg, times, proms) -> { leg; op_s = Util.Sample.to_array times; proms = !proms })
        samples;
    attempted = !attempted;
    failed = !failed;
  }

(* Daemon-side instruments from [serve --telemetry]'s telemetry.prom:
   unlabelled samples render as "name value". *)
let prom_value prom name =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = name -> (
        match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
        | Some v -> acc +. v
        | None -> acc)
      | _ -> acc)
    0. (String.split_on_char '\n' prom)

let span_sum snap name =
  match Tel.Registry.Snapshot.find snap name with
  | Some (Tel.Registry.Snapshot.Span s) -> s.Tel.Histogram.s_sum
  | _ -> 0.

(* One trial of a leg's first spec, through the executor and the audit
   separately, with the executor's phase spans on. *)
let trial_layers sp =
  let cell = (Spec.cells sp).(0) in
  let cfg = Spec.config_of_cell sp cell ~trial:0 in
  let reg = Tel.Registry.create () in
  let t0 = Util.now () in
  let r = Sim.Execution.run ~telemetry:reg cfg in
  let t1 = Util.now () in
  ignore (Aggregate.of_execution r);
  let t2 = Util.now () in
  (t1 -. t0, t2 -. t1, r, Tel.Registry.snapshot reg)

let binomial_ns sp =
  let cell = (Spec.cells sp).(0) in
  let honest = cell.Spec.n - int_of_float (cell.nu *. float_of_int cell.n) in
  let d = Nakamoto_prob.Binomial.create ~trials:honest ~p:cell.p in
  let rng = Nakamoto_prob.Rng.create ~seed:1L in
  let k = 1_000_000 in
  let acc = ref 0 in
  let t0 = Util.now () in
  for _ = 1 to k do
    acc := !acc + Nakamoto_prob.Binomial.sample rng d
  done;
  let dt = Util.now () -. t0 in
  ignore (Sys.opaque_identity !acc);
  dt /. float_of_int k *. 1e9

(* The traced run confirms that each leg loads the layer it was chosen
   for; a condition that does not hold counts as a failed operation. *)
let dense_checks ~share_dense = [ ("execution.share_dense > 0.5", share_dense > 0.5) ]
let paper_checks ~share_paper = [ ("aggregate.share_paper > 0.5", share_paper > 0.5) ]

let daemon_checks ~shards ~leases =
  [ ("serve.leases_granted >= shards", leases >= float_of_int shards) ]

let rate_unit = function Gen.Dense | Gen.Paper -> "trials/s" | Gen.Daemon -> "shards/s"

let rate_name = function
  | Gen.Dense -> "dense_trials_per_s"
  | Gen.Paper -> "paper_trials_per_s"
  | Gen.Daemon -> "daemon_shards_per_s"

(* The layers one leg loads, timed from outside, and the checks on them. *)
let leg_layers ~specs leg ~prom ~inproc_shards ~turnaround_ms =
  (* The middle stratum of the paper leg's specs. *)
  let sp = specs.(Array.length specs / 2) in
  match leg with
  | Gen.Dense ->
    let run_s, audit_s, r, snap = trial_layers sp in
    let share = run_s /. (run_s +. audit_s) in
    ( [
        Util.m "execution.run_s" "s" run_s;
        Util.m "execution.share_dense" "ratio" share;
        Util.m "execution.processed_rounds" "count" (float_of_int r.Sim.Execution.processed_rounds);
        Util.m "execution.phase_delivery_s" "s" (span_sum snap "sim_phase_delivery_seconds");
        Util.m "execution.phase_mining_s" "s" (span_sum snap "sim_phase_mining_seconds");
        Util.m "execution.phase_adversary_s" "s" (span_sum snap "sim_phase_adversary_seconds");
        Util.m "binomial.sample_ns" "ns" (binomial_ns sp);
      ],
      [ Printf.sprintf "dense trial          execution %.3f s, audit %.3f s" run_s audit_s ],
      dense_checks ~share_dense:share )
  | Gen.Paper ->
    let run_s, audit_s, r, _ = trial_layers sp in
    let share = audit_s /. (run_s +. audit_s) in
    ( [
        Util.m "aggregate.of_execution_s" "s" audit_s;
        Util.m "aggregate.share_paper" "ratio" share;
        Util.m "execution.snapshots" "count" (float_of_int (List.length r.Sim.Execution.snapshots));
      ],
      [ Printf.sprintf "paper trial          execution %.3f s, audit %.3f s" run_s audit_s ],
      paper_checks ~share_paper:share )
  | Gen.Daemon ->
    let leases = prom_value prom "serve_leases_granted_total" in
    ( [
        Util.m "serve.fold_s" "s" (prom_value prom "serve_fold_seconds_sum");
        Util.m "serve.leases_granted" "count" leases;
        Util.m "serve.frames_in" "count" (prom_value prom "serve_frames_in_total");
        Util.m "serve.frames_out" "count" (prom_value prom "serve_frames_out_total");
        Util.m "journal.append_s" "s" (prom_value prom "campaign_journal_append_seconds_sum");
        Util.m "journal.fsync_s" "s" (prom_value prom "campaign_journal_fsync_seconds_sum");
        Util.m "campaign.inproc_shards_per_s" "1/s" inproc_shards;
        Util.m "campaign.daemon_turnaround_ms" "ms" turnaround_ms;
      ],
      [],
      daemon_checks ~shards:(Spec.trial_count sp) ~leases )

let all_legs = [ Gen.Dense; Gen.Paper; Gen.Daemon ]

(* [legs] is [all_legs]; the benchmark's own tests narrow it. *)
let run ~legs ~seed ~seconds ~trace =
  (* Every leg's specs and reference journals, in process, before any
     timing. *)
  let inproc_shards = ref 0. in
  let specs = List.map (fun leg -> (leg, Gen.campaign_specs ~seed leg)) legs in
  let refs =
    List.map
      (fun (leg, specs) ->
        ( leg,
          Array.mapi
            (fun slot sp ->
              let journal = Util.path (Printf.sprintf "ref_%s%d.jsonl" (Gen.leg_name leg) slot) in
              let o = inproc sp ~journal in
              if leg = Gen.Daemon then
                inproc_shards := float_of_int (Spec.trial_count sp) /. o.Campaign.elapsed;
              Check.maybe_spoil_journal slot (Util.read_file journal))
            specs ))
      specs
  in
  let specs leg = List.assoc leg specs in
  let expected leg k =
    let r = List.assoc leg refs in
    r.(k mod Array.length r)
  in
  (* A traced run splits its time between an untraced and a traced
     measurement: their difference is the tracing overhead. *)
  let seconds = if trace then seconds /. 2. else seconds in
  let m = measure ~legs ~specs ~seconds ~telemetry:false ~expected in
  let leg_ms l = Util.median l.op_s *. 1e3 in
  (* Rounds per second at the sum of the legs' median campaign times:
     a slow spell that stretches one leg's campaign in a round moves
     that leg's median, not every round it falls in. *)
  let rate m = 1e3 /. List.fold_left (fun acc l -> acc +. leg_ms l) 0. m.legs in
  let round_ms = 1e3 /. rate m in
  let setup_s = Util.median m.setup in
  let layers, trace_report, checks, t_att, t_fail =
    if not trace then ([], [], [], 0, 0)
    else begin
      let mt = measure ~legs ~specs ~seconds ~telemetry:true ~expected in
      let per_leg =
        List.map
          (fun l ->
            let traced = List.find (fun t -> t.leg = l.leg) mt.legs in
            let prom = match traced.proms with p :: _ -> p | [] -> "" in
            leg_layers ~specs:(specs l.leg) l.leg ~prom ~inproc_shards:!inproc_shards
              ~turnaround_ms:(leg_ms l))
          m.legs
      in
      let rates =
        List.map
          (fun l -> Util.m ("campaign." ^ rate_name l.leg) "1/s" (leg_rate ~specs:(specs l.leg) l))
          m.legs
      in
      ( List.concat_map (fun (x, _, _) -> x) per_leg
        @ rates
        @ [ Util.m "trace.overhead_share" "ratio" ((rate m -. rate mt) /. rate m) ],
        Printf.sprintf "traced rounds        %.4f 1/s (telemetry on)" (rate mt)
        :: List.concat_map (fun (_, r, _) -> r) per_leg,
        List.concat_map (fun (_, _, c) -> c) per_leg,
        mt.attempted,
        mt.failed )
    end
  in
  {
    Util.attempted = m.attempted + t_att;
    failed = m.failed + t_fail;
    e2e = [ Util.m "setup_s" "s" setup_s; Util.m "ops_per_s" "1/s" (rate m) ];
    report =
      Printf.sprintf "campaign rounds      %.4f 1/s  (one campaign of every leg per round, %d rounds)"
        (rate m) m.rounds
      :: List.map
           (fun l ->
             let ms = Array.map (fun x -> x *. 1e3) l.op_s in
             Printf.sprintf "%-20s %.4f %s  (campaign p50 %.3f ms, max %.3f ms, n=%d, %.0f%% of a round)"
               (rate_name l.leg)
               (leg_rate ~specs:(specs l.leg) l)
               (rate_unit l.leg) (leg_ms l) (Util.quantile ms 1.) (Array.length ms)
               (100. *. leg_ms l /. round_ms))
           m.legs
      @ [
          Printf.sprintf
            "setup_s              %.4f s  (median of %d rounds: one-round in-process campaigns, daemon spawn to handshake)"
            setup_s (Array.length m.setup);
        ]
      @ trace_report;
    layers;
    checks;
  }
