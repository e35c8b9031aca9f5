module Block = Nakamoto_chain.Block
module Block_tree = Nakamoto_chain.Block_tree
module Network = Nakamoto_net.Network
module Rng = Nakamoto_prob.Rng
module Binomial = Nakamoto_prob.Binomial
module Pow = Nakamoto_chain.Pow

module Tel = Nakamoto_telemetry

let log_src = Logs.Src.create "nakamoto.sim" ~doc:"Delta-delay protocol execution"

module Log = (val Logs.src_log log_src)

type snapshot = { round : int; tips : Block.t array }

type result = {
  config : Config.t;
  snapshots : snapshot list;
  god_view : Block_tree.t;
  final_tips : Block.t array;
  convergence_opportunities : int;
  adversary_blocks : int;
  honest_blocks : int;
  h_rounds : int;
  h1_rounds : int;
  max_reorg_depth : int;
  adversary_releases : int;
  messages_sent : int;
  orphans_remaining : int;
  processed_rounds : int;
}

type round_report = {
  round_number : int;
  honest_mined : int;
  adversary_successes : int;
  releases_issued : int;
  best_height : int;
  reorg_depth : int;
}

(* ------------------------------------------------------------------ *)
(* Telemetry: every instrument is resolved once before the round loop
   and threaded through as an [instruments option].  The disabled handle
   is [None]; the hot path then pays one pattern match per phase and
   nothing else — no clock reads, no allocation — which is what keeps
   telemetry-off throughput within noise of the uninstrumented build.
   Telemetry never draws from any RNG stream, so results are bit-
   identical with the handle on or off (pinned by the differential
   test).                                                              *)
(* ------------------------------------------------------------------ *)

type instruments = {
  i_rounds : Tel.Counter.t;
  i_honest : Tel.Counter.t;
  i_adversary : Tel.Counter.t;
  i_releases : Tel.Counter.t;
  i_height_growth : Tel.Counter.t;
  i_reorg_rounds : Tel.Counter.t;
  i_release_burst : Tel.Histogram.t;  (** blocks per adversarial release *)
  i_reorg_depth : Tel.Histogram.t;  (** fixed-boundary, per reorging round *)
  i_interarrival : Tel.Histogram.t;  (** rounds between honest-block rounds *)
  i_conv_gap : Tel.Histogram.t;  (** rounds between convergence opportunities *)
  sp_delivery : Tel.Span.t;
  sp_mining : Tel.Span.t;
  sp_adversary : Tel.Span.t;
  mutable last_block_round : int;
  mutable last_conv_count : int;
  mutable last_conv_round : int;
  mutable last_best_height : int;
  mutable phase_started : float;
}

let reorg_depth_bounds =
  [| 1.; 2.; 3.; 4.; 6.; 8.; 12.; 16.; 24.; 32.; 48.; 64. |]

let make_instruments reg =
  {
    i_rounds = Tel.Registry.counter reg "sim_rounds_total";
    i_honest = Tel.Registry.counter reg "sim_honest_blocks_total";
    i_adversary = Tel.Registry.counter reg "sim_adversary_blocks_total";
    i_releases = Tel.Registry.counter reg "sim_adversary_releases_total";
    i_height_growth = Tel.Registry.counter reg "sim_best_height_growth_total";
    i_reorg_rounds = Tel.Registry.counter reg "sim_reorg_rounds_total";
    i_release_burst = Tel.Registry.log2_histogram reg "sim_release_burst_blocks";
    i_reorg_depth =
      Tel.Registry.fixed_histogram reg ~bounds:reorg_depth_bounds
        "sim_reorg_depth";
    i_interarrival =
      Tel.Registry.log2_histogram reg "sim_block_interarrival_rounds";
    i_conv_gap = Tel.Registry.log2_histogram reg "sim_convergence_gap_rounds";
    sp_delivery = Tel.Registry.span reg "sim_phase_delivery_seconds";
    sp_mining = Tel.Registry.span reg "sim_phase_mining_seconds";
    sp_adversary = Tel.Registry.span reg "sim_phase_adversary_seconds";
    last_block_round = 0;
    last_conv_count = 0;
    last_conv_round = 0;
    last_best_height = 0;
    phase_started = 0.;
  }

let phase_start instr span =
  match instr with
  | None -> ()
  | Some i -> i.phase_started <- Tel.Span.start (span i)

let phase_stop instr span =
  match instr with
  | None -> ()
  | Some i -> Tel.Span.stop (span i) i.phase_started

(* A convergence opportunity completed: record the gap since the previous
   one.  [conv_round] is the true completion round — the round being
   observed for a per-round step, but skip mode can complete an
   opportunity strictly inside a fast-forwarded span. *)
let note_convergence i ~conv_count ~conv_round =
  if conv_count > i.last_conv_count then begin
    if i.last_conv_round > 0 then
      Tel.Histogram.observe i.i_conv_gap
        (float_of_int (conv_round - i.last_conv_round));
    i.last_conv_count <- conv_count;
    i.last_conv_round <- conv_round
  end

(* End-of-round bookkeeping shared by the executors; [releases] is the
   round's release list (burst sizes), the rest are this round's already
   computed statistics. *)
let observe_round instr ~round ~h ~successes ~releases ~round_reorg
    ~best_height ~conv_count ~conv_round =
  match instr with
  | None -> ()
  | Some i ->
    Tel.Counter.incr i.i_rounds;
    Tel.Counter.add i.i_honest h;
    Tel.Counter.add i.i_adversary successes;
    Tel.Counter.add i.i_releases (List.length releases);
    List.iter
      (fun { Adversary.blocks; _ } ->
        Tel.Histogram.observe i.i_release_burst
          (float_of_int (List.length blocks)))
      releases;
    if round_reorg > 0 then begin
      Tel.Counter.incr i.i_reorg_rounds;
      Tel.Histogram.observe i.i_reorg_depth (float_of_int round_reorg)
    end;
    if h > 0 then begin
      if i.last_block_round > 0 then
        Tel.Histogram.observe i.i_interarrival
          (float_of_int (round - i.last_block_round));
      i.last_block_round <- round
    end;
    note_convergence i ~conv_count ~conv_round;
    if best_height > i.last_best_height then begin
      Tel.Counter.add i.i_height_growth (best_height - i.last_best_height);
      i.last_best_height <- best_height
    end

(* ------------------------------------------------------------------ *)
(* What every executor shares: the RNG stream layout, the adversary, the
   network, the convergence pattern, the running counters, reorg
   tracking, per-round reporting, the snapshot cadence, quiescence and
   result assembly.  The executors differ only in how a round's blocks
   are mined and its releases routed.                                   *)
(* ------------------------------------------------------------------ *)

type run_state = {
  config : Config.t;
  rng : Rng.t;
  oracle_seed : int64;
  adversary : Adversary.t;
  network : Network.t;
  pattern : Pattern.t;
  on_round : (round_report -> unit) option;
  instr : instruments option;
  mutable snapshots : snapshot list;
  mutable next_snap : int;  (** the first cadence round not yet recorded *)
  mutable honest_blocks : int;
  mutable adversary_blocks : int;
  mutable h_rounds : int;
  mutable h1_rounds : int;
  mutable max_reorg : int;
  mutable processed : int;
}

let setup ~on_round ~instr config =
  let honest_count = Config.honest_count config in
  let rng = Rng.create ~seed:config.seed in
  (* Every mode draws the oracle seed and then splits off the network
     stream, so the modes draw from decorrelated streams per seed. *)
  let oracle_seed = Rng.bits64 rng in
  let net_rng = Rng.split rng in
  let adversary = Adversary.create ~strategy:config.strategy ~honest_count in
  let policy =
    match config.delay_override with
    | Some policy -> policy
    | None ->
      Adversary.delay_policy_for config.strategy ~delta:config.delta
        ~honest_count
  in
  {
    config;
    rng;
    oracle_seed;
    adversary;
    network =
      Network.create ~delta:config.delta ~players:honest_count ~policy
        ~rng:net_rng;
    pattern = Pattern.create ~delta:config.delta;
    on_round;
    instr;
    snapshots = [];
    next_snap = config.snapshot_interval;
    honest_blocks = 0;
    adversary_blocks = 0;
    h_rounds = 0;
    h1_rounds = 0;
    max_reorg = 0;
    processed = 0;
  }

let blocks_of messages =
  List.concat_map (fun (m : Network.message) -> m.blocks) messages

(* Hand [blocks] to [miner], tracking how deep it had to roll back its
   chain: into the round's deepest ([round_reorg], when tracked) and the
   run's. *)
let receive_tracked st miner blocks ~round ~round_reorg =
  if blocks <> [] then begin
    let old_tip = Miner.best_tip miner in
    Miner.receive miner blocks;
    let new_tip = Miner.best_tip miner in
    if not (Block.equal old_tip new_tip) then begin
      let meet =
        Block_tree.common_prefix_height (Adversary.view st.adversary) old_tip
          new_tip
      in
      let rolled_back = old_tip.Block.height - meet in
      (match round_reorg with
      | Some cell -> if rolled_back > !cell then cell := rolled_back
      | None -> ());
      if rolled_back > 2 then
        Log.debug (fun m ->
            m "round %d: miner %d rolled back %d blocks (%d -> %d)" round
              (Miner.id miner) rolled_back old_tip.Block.height
              new_tip.Block.height);
      if rolled_back > st.max_reorg then st.max_reorg <- rolled_back
    end
  end

(* Snapshot cadence: every [snapshot_interval]-th round, plus the horizon.
   A cadence round is recorded once the run has moved past it, from the
   tips as they stood at its end — for a round inside a skipped span that
   is the state after the last simulated round. *)
let take_snapshot st ~tips round =
  st.snapshots <- { round; tips = tips () } :: st.snapshots

let snapshots_through st ~tips round =
  while st.next_snap <= round do
    take_snapshot st ~tips st.next_snap;
    st.next_snap <- st.next_snap + st.config.snapshot_interval
  done

let note_mined st ~h mined =
  st.honest_blocks <- st.honest_blocks + h;
  if h > 0 then st.h_rounds <- st.h_rounds + 1;
  if h = 1 then st.h1_rounds <- st.h1_rounds + 1;
  Pattern.observe st.pattern (Round_state.of_block_count h);
  Adversary.observe st.adversary mined

(* The adversary spends its [successes]; the caller routes the releases. *)
let adversary_act st ~round ~successes =
  st.adversary_blocks <- st.adversary_blocks + successes;
  let releases = Adversary.act st.adversary ~round ~successes in
  if releases <> [] then
    Log.debug (fun m ->
        m "round %d: adversary issued %d release(s) (%d successes this round)"
          round (List.length releases) successes);
  releases

(* Report a finished round to [on_round] and the telemetry handle;
   [best_height] is only computed when one of them listens. *)
let end_round st ~round ~h ~successes ~releases ~round_reorg ~best_height =
  st.processed <- st.processed + 1;
  if Option.is_some st.on_round || Option.is_some st.instr then begin
    let best_height = best_height () in
    (match st.on_round with
    | None -> ()
    | Some report ->
      report
        {
          round_number = round;
          honest_mined = h;
          adversary_successes = successes;
          releases_issued = List.length releases;
          best_height;
          reorg_depth = round_reorg;
        });
    observe_round st.instr ~round ~h ~successes ~releases ~round_reorg
      ~best_height
      ~conv_count:(Pattern.count st.pattern)
      ~conv_round:(Pattern.last_count_round st.pattern)
  end

(* Record the remaining snapshots, then quiesce: deliver the messages
   still in flight (at most delta rounds' worth).  Without this, an
   adversary that reorders heavily can leave a child block delivered but
   its parent still in transit at the cutoff, stranding orphans that the
   model says must connect. *)
let finish st ~deliver_round ~tips ~orphans =
  let horizon = st.config.rounds in
  snapshots_through st ~tips horizon;
  let last = match st.snapshots with { round; _ } :: _ -> round | [] -> 0 in
  if last <> horizon then take_snapshot st ~tips horizon;
  for round = horizon + 1 to horizon + st.config.delta do
    deliver_round round ~round_reorg:None
  done;
  {
    config = st.config;
    snapshots = List.rev st.snapshots;
    god_view = Adversary.view st.adversary;
    final_tips = tips ();
    convergence_opportunities = Pattern.count st.pattern;
    adversary_blocks = st.adversary_blocks;
    honest_blocks = st.honest_blocks;
    h_rounds = st.h_rounds;
    h1_rounds = st.h1_rounds;
    max_reorg_depth = st.max_reorg;
    adversary_releases = Adversary.reorgs_caused st.adversary;
    messages_sent = Network.messages_sent st.network;
    orphans_remaining = orphans ();
    processed_rounds = st.processed;
  }

(* ------------------------------------------------------------------ *)
(* Exact mode: one H-query per honest miner per round, nu n sequential
   adversary queries, every message enqueued per recipient.  This path is
   bit-for-bit the historical executor.                                 *)
(* ------------------------------------------------------------------ *)

let run_exact st =
  let config = st.config in
  let honest_n = Config.honest_count config in
  let adv_n = Config.adversary_count config in
  let oracle = Pow.create ~seed:st.oracle_seed ~p:config.p in
  let miners =
    Array.init honest_n (fun id -> Miner.create ~tie_break:config.tie_break ~id ())
  in
  let tips () = Array.map Miner.best_tip miners in
  let deliver_round round ~round_reorg =
    Array.iter
      (fun miner ->
        let inbox = Network.deliver st.network ~recipient:(Miner.id miner) ~round in
        receive_tracked st miner (blocks_of inbox) ~round ~round_reorg)
      miners
  in
  for round = 1 to config.rounds do
    snapshots_through st ~tips (round - 1);
    let round_reorg = ref 0 in
    (* Phase 1: delivery.  Record reorg depth when a miner abandons part of
       its previously-best chain. *)
    phase_start st.instr (fun i -> i.sp_delivery);
    deliver_round round ~round_reorg:(Some round_reorg);
    phase_stop st.instr (fun i -> i.sp_delivery);
    (* Phase 2: honest mining — one parallel H-query each (Section III's
       oracle: the query digests the miner's current parent). *)
    phase_start st.instr (fun i -> i.sp_mining);
    let mined_this_round = ref [] in
    Array.iter
      (fun miner ->
        let parent = (Miner.best_tip miner).Block.hash in
        match
          Pow.query oracle ~parent ~miner:(Miner.id miner) ~round ~query_index:0
        with
        | None -> ()
        | Some _proof ->
          let block = Miner.extend_tip miner ~round ~nonce:(Miner.id miner) in
          mined_this_round := block :: !mined_this_round;
          Network.broadcast st.network
            { Network.sender = Miner.id miner; sent_round = round; blocks = [ block ] })
      miners;
    let h = List.length !mined_this_round in
    phase_stop st.instr (fun i -> i.sp_mining);
    note_mined st ~h !mined_this_round;
    (* Phase 3: the adversary's q = nu n sequential H-queries on its
       strategy-chosen tip, then releases. *)
    phase_start st.instr (fun i -> i.sp_adversary);
    let successes =
      Pow.successes oracle
        ~parent:(Adversary.private_tip st.adversary).Block.hash ~miner:(-1)
        ~round ~queries:adv_n
    in
    let releases = adversary_act st ~round ~successes in
    List.iter
      (fun { Adversary.audience; delay; blocks } ->
        let send recipient =
          Network.send_direct st.network ~recipient ~delay
            { Network.sender = -1; sent_round = round; blocks }
        in
        match audience with
        | Adversary.All_honest ->
          for recipient = 0 to honest_n - 1 do
            send recipient
          done
        | Adversary.Only recipients -> List.iter send recipients)
      releases;
    phase_stop st.instr (fun i -> i.sp_adversary);
    end_round st ~round ~h ~successes ~releases ~round_reorg:!round_reorg
      ~best_height:(fun () ->
        Array.fold_left (fun acc m -> max acc (Miner.chain_length m)) 0 miners)
  done;
  finish st ~deliver_round ~tips ~orphans:(fun () ->
      Array.fold_left (fun acc m -> acc + Miner.orphan_count m) 0 miners)

(* ------------------------------------------------------------------ *)
(* The crowd core behind Aggregate and Skip: the paper-scale fast path.

   Per simulated round the cost is O(blocks mined + messages due)
   instead of O(n):

   - The round's honest and adversarial success counts are drawn from
     the binomial laws the queries realize (see the drivers below), and
     *which* honest miners won is a partial Fisher-Yates draw over the
     honest ids — round outcomes are distribution-identical to exact
     mode, though not bit-identical.  Only the adversary's count reaches
     its strategy, so its nu n sequential queries collapse to one draw.
   - Broadcasts ride the network's shared Δ-ring lane (O(1) per
     broadcast); every miner whose view never diverges from that shared
     stream is represented by one "crowd" view.  A miner is materialized
     (cloned from the crowd) the first time it wins a block or is targeted
     by a direct send, and from then on consumes the ring plus its own
     event queue every round.

   Untouched miners are exact replicas of the crowd by construction (they
   received exactly the shared stream and mined nothing), so snapshots and
   final tips fill their slots with the crowd tip.  [orphans_remaining]
   counts the crowd view once, not once per untouched miner.

   The crowd stands for the untouched miners and for nothing else: once
   every miner has been materialized (the Balance adversary forces this at
   its first release, whose [Only] audiences cover all honest miners) the
   crowd retires — it stops consuming the shared stream and drops out of
   reorg and orphan accounting.  A retired crowd would otherwise keep
   receiving ring blocks whose direct-sent parents it never saw and report
   phantom orphans no real miner holds.

   The two modes differ in one decision, passed in as [drive]: which
   round to simulate next and how its counts are drawn.  A driver calls
   [step_round ~round ~h ~successes] for every simulated round, in
   increasing order; [successes] is forced after the winners are drawn,
   so a driver can keep the adversary's draw behind them in its RNG
   stream. *)
(* ------------------------------------------------------------------ *)

let run_crowd st ~drive =
  let config = st.config in
  let honest_n = Config.honest_count config in
  Network.enable_ring st.network;
  (* The crowd: the one view shared by every miner never touched
     individually.  Its id is never a message sender, so it consumes the
     whole shared stream. *)
  let crowd = Miner.create ~tie_break:config.tie_break ~id:(-1) () in
  let materialized : (int, Miner.t) Hashtbl.t = Hashtbl.create 64 in
  (* Winner-selection pool: a persistent permutation of the honest ids.
     Each round's partial Fisher-Yates prefix is uniform over k-subsets
     regardless of the permutation it starts from. *)
  let pool = Array.init honest_n Fun.id in
  (* The crowd is live while it still stands for at least one untouched
     miner; materialization is monotone, so once this flips it stays. *)
  let crowd_live () = Hashtbl.length materialized < honest_n in
  let deliver_round round ~round_reorg =
    let shared = Network.deliver_shared st.network ~round in
    if crowd_live () then
      receive_tracked st crowd (blocks_of shared) ~round ~round_reorg;
    Hashtbl.iter
      (fun id miner ->
        let own_filtered =
          if shared = [] then []
          else
            List.concat_map
              (fun (m : Network.message) ->
                if m.sender = id then [] else m.blocks)
              shared
        in
        let direct = Network.deliver st.network ~recipient:id ~round in
        receive_tracked st miner
          (own_filtered @ blocks_of direct)
          ~round ~round_reorg)
      materialized
  in
  let materialize id =
    match Hashtbl.find_opt materialized id with
    | Some miner -> miner
    | None ->
      let miner = Miner.clone crowd ~id in
      Hashtbl.add materialized id miner;
      miner
  in
  let tip_of id =
    match Hashtbl.find_opt materialized id with
    | Some miner -> Miner.best_tip miner
    | None -> Miner.best_tip crowd
  in
  let tips () = Array.init honest_n tip_of in
  let best_height () =
    Hashtbl.fold
      (fun _ m acc -> max acc (Miner.chain_length m))
      materialized
      (Miner.chain_length crowd)
  in
  let step_round ~round ~h ~successes =
    snapshots_through st ~tips (round - 1);
    let round_reorg = ref 0 in
    (* Phase 1: delivery — the shared ring stream to the crowd and every
       materialized miner, plus per-miner direct queues. *)
    phase_start st.instr (fun i -> i.sp_delivery);
    deliver_round round ~round_reorg:(Some round_reorg);
    phase_stop st.instr (fun i -> i.sp_delivery);
    (* Phase 2: honest mining — [h] winners by partial Fisher-Yates. *)
    phase_start st.instr (fun i -> i.sp_mining);
    let mined_this_round = ref [] in
    for i = 0 to h - 1 do
      let j = i + Rng.int st.rng ~bound:(honest_n - i) in
      let winner = pool.(j) in
      pool.(j) <- pool.(i);
      pool.(i) <- winner;
      let miner = materialize winner in
      let block = Miner.extend_tip miner ~round ~nonce:winner in
      mined_this_round := block :: !mined_this_round;
      Network.broadcast st.network
        { Network.sender = winner; sent_round = round; blocks = [ block ] }
    done;
    phase_stop st.instr (fun i -> i.sp_mining);
    note_mined st ~h !mined_this_round;
    (* Phase 3: the adversary's successes, then releases. *)
    phase_start st.instr (fun i -> i.sp_adversary);
    let successes = successes () in
    let releases = adversary_act st ~round ~successes in
    List.iter
      (fun { Adversary.audience; delay; blocks } ->
        let msg = { Network.sender = -1; sent_round = round; blocks } in
        match audience with
        | Adversary.All_honest -> Network.broadcast_all st.network ~delay msg
        | Adversary.Only recipients ->
          List.iter
            (fun recipient ->
              ignore (materialize recipient);
              Network.send_direct st.network ~recipient ~delay msg)
            recipients)
      releases;
    phase_stop st.instr (fun i -> i.sp_adversary);
    end_round st ~round ~h ~successes ~releases ~round_reorg:!round_reorg
      ~best_height
  in
  drive st ~step_round;
  finish st ~deliver_round ~tips ~orphans:(fun () ->
      Hashtbl.fold
        (fun _ m acc -> acc + Miner.orphan_count m)
        materialized
        (if crowd_live () then Miner.orphan_count crowd else 0))

let binomial_laws config =
  ( Binomial.create ~trials:(Config.honest_count config) ~p:config.Config.p,
    Binomial.create ~trials:(Config.adversary_count config) ~p:config.p )

(* Aggregate: every round is simulated.  The honest count is one
   binom(mu n, p) draw, the adversary's one binom(nu n, p) draw taken
   after the winners. *)
let every_round st ~step_round =
  let honest_dist, adv_dist = binomial_laws st.config in
  let adversary_successes () = Binomial.sample st.rng adv_dist in
  for round = 1 to st.config.rounds do
    let h = Binomial.sample st.rng honest_dist in
    step_round ~round ~h ~successes:adversary_successes
  done

(* ------------------------------------------------------------------ *)
(* Skip: the O(events) driver.

   At the paper's operating point c = 1/(p n Delta) almost every round is
   empty — no honest or adversarial success and no delivery due — yet
   Aggregate still pays O(1) per round.  Skip never iterates an empty
   round:

   - The gap to the next block-bearing round is one draw from
     Geometric(1 - q0) on {0, 1, ...} where q0 = (1-p)^(mu n + nu n) is
     the probability a round mines nothing on either side; the success
     counts of that round are drawn from the exact conditional law
     (H, A) | H + A > 0, split as: with probability (1 - qh)/(1 - q0) a
     zero-truncated binom(mu n, p) honest count paired with an
     unconditional binom(nu n, p) adversary count, else an honest zero
     paired with a zero-truncated binom(nu n, p).  Multiplying out
     recovers P(H = h) P(A = a) / (1 - q0) exactly, so the per-round
     joint law matches Aggregate's two independent draws conditioned on
     the round being non-empty — and empty rounds carry no other
     randomness.  Zero-truncated sampling is O(1) expected
     (Binomial.sample_positive): rejection would cost the gap length
     back.
   - The next simulated round is the earliest of {sampled mining round,
     next due delivery (Network.next_due: ring scan bounded by delta + 1
     slots plus the direct-queue due index)}.  Releases are the third
     event source in principle, but every strategy is event-driven —
     Adversary.advance_empty verifies at run time that no release can
     originate inside an empty span, so releases always surface at a
     simulated round and are visible to next_due the moment they are
     routed.
   - The span in between is fast-forwarded in O(1): the geometric draw
     stands for its mining randomness, Pattern.observe_empty advances
     the convergence detector (reporting a mid-span completion at its
     true round), the adversary is advanced by one verified no-op act,
     and telemetry adds the span to the round counter.  Snapshot-cadence
     rounds inside the span are recorded by the core's lazy cadence.

   Because mining is i.i.d. per round, a sampled mining round stays
   valid across intermediate delivery-only rounds (memorylessness); it
   is resampled only after being consumed.  Results are
   distribution-identical to Aggregate, not bit-identical: the RNG is
   consumed per event rather than per round.  [on_round] fires only for
   simulated rounds — consumers reconstruct the skipped all-zero rounds
   from [processed_rounds] vs [config.rounds].                          *)
(* ------------------------------------------------------------------ *)

let skip_empty_rounds st ~step_round =
  Network.enable_due_index st.network;
  let honest_dist, adv_dist = binomial_laws st.config in
  (* The joint gap law. *)
  let log_q0 =
    Binomial.log_prob_zero honest_dist +. Binomial.log_prob_zero adv_dist
  in
  let one_minus_q0 = -.Float.expm1 log_q0 in
  let p_honest_branch =
    (* P(H > 0 | H + A > 0); pinned to 1 when the adversary has no miners
       so the truncated adversary draw is provably never reached. *)
    if Config.adversary_count st.config = 0 then 1.
    else Binomial.prob_positive honest_dist /. one_minus_q0
  in
  let horizon = st.config.rounds in
  let sample_gap () =
    if log_q0 = neg_infinity then 0
    else begin
      (* Inversion: floor (log u / log q0) with u in (0, 1] is
         Geometric(1 - q0) on {0, 1, ...}. *)
      let u = 1. -. Rng.float st.rng in
      let g = Float.log u /. log_q0 in
      if g > float_of_int horizon then horizon else int_of_float g
    end
  in
  let sample_event_successes () =
    if Rng.float st.rng < p_honest_branch then
      ( Binomial.sample_positive st.rng honest_dist,
        Binomial.sample st.rng adv_dist )
    else (0, Binomial.sample_positive st.rng adv_dist)
  in
  let advance_empty_span ~first ~len =
    if len > 0 then begin
      Pattern.observe_empty st.pattern ~rounds:len;
      Adversary.advance_empty st.adversary ~round:first ~rounds:len;
      match st.instr with
      | None -> ()
      | Some i ->
        Tel.Counter.add i.i_rounds len;
        note_convergence i
          ~conv_count:(Pattern.count st.pattern)
          ~conv_round:(Pattern.last_count_round st.pattern)
    end
  in
  let cursor = ref 0 in
  let next_mining = ref None in
  while !cursor < horizon do
    let nm =
      match !next_mining with
      | Some r -> r
      | None ->
        let gap = sample_gap () in
        (* horizon + 1 is the "no mining within the horizon" sentinel. *)
        let r =
          if gap > horizon - !cursor - 1 then horizon + 1
          else !cursor + 1 + gap
        in
        next_mining := Some r;
        r
    in
    let nd =
      match Network.next_due st.network ~now:!cursor with
      | Some d -> d
      | None -> max_int
    in
    let target = min (min nm nd) (horizon + 1) in
    advance_empty_span ~first:(!cursor + 1) ~len:(target - !cursor - 1);
    if target <= horizon then begin
      (* A delivery-only round mines nothing; the sampled mining round
         keeps its law by memorylessness and is consumed later. *)
      let h, successes =
        if target = nm then begin
          next_mining := None;
          sample_event_successes ()
        end
        else (0, 0)
      in
      step_round ~round:target ~h ~successes:(fun () -> successes)
    end;
    cursor := target
  done

let run ?on_round ?telemetry config =
  Config.validate config;
  let instr = Option.map make_instruments telemetry in
  let st = setup ~on_round ~instr config in
  match config.mining_mode with
  | Config.Exact -> run_exact st
  | Config.Aggregate -> run_crowd st ~drive:every_round
  | Config.Skip -> run_crowd st ~drive:skip_empty_rounds
