(* assess-rpc: one [serve] process, one Unix-socket and one TCP-loopback
   connection, pipelined [Query_assess] frames.  An open loop at a fixed
   seeded Poisson schedule measures latency from each request's due
   time; a closed loop on the same connections then measures capacity. *)

module Core = Nakamoto_core
module Msg = Nakamoto_wire.Message
module Markov = Nakamoto_markov

let rate = 250.

(* Requests kept outstanding per connection in the closed loop: enough
   that the daemon always finds the next request queued, so capacity
   counts its work and not the wake-ups between the two processes. *)
let window = 16

(* The run alternates 2 s cycles: 0.8 s of open loop, 1.2 s of closed
   loop, then one fresh daemon spawned and timed to its first reply.
   Spreading every measurement over the whole run averages out the
   host's short slow spells. *)
let cycle_s = 2.
let open_share = 0.4

type daemon = { pid : int; fds : Unix.file_descr array; readers : Sut.reader array }

let query (pt : Gen.point) =
  Msg.Query_assess { Msg.q_nu = pt.nu; q_c = pt.c; q_n = pt.n; q_delta = pt.delta }

(* Spawn, bind, connect and handshake both transports, and wait for the
   first reply: the set-up a client of a fresh daemon pays. *)
let start ~tag ~telemetry probe =
  let sock = Util.path ("rpc" ^ tag ^ ".sock") in
  let err = Util.path ("rpc" ^ tag ^ ".err") in
  let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = Util.now () in
  let args =
    [ "serve"; "--socket"; sock; "--listen"; "127.0.0.1:0" ]
    @ if telemetry then [ "--telemetry"; Util.path ("rpc" ^ tag ^ ".tel") ] else []
  in
  let pid = Sut.spawn ~stderr:errfd args in
  Unix.close errfd;
  let fu = Sut.connect (Sut.Unix_path sock) in
  let chu = Sut.handshake fu in
  let ft = Sut.connect (Sut.Tcp_port (Sut.tcp_port_of_log err)) in
  ignore (Sut.handshake ft);
  Msg.send chu (query probe);
  let first = Msg.recv ~timeout:10. chu in
  let dt = Util.now () -. t0 in
  let fds = [| fu; ft |] in
  ({ pid; fds; readers = Array.map Sut.reader fds }, dt, first)

let stop d =
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) d.fds;
  Sut.kill d.pid

(* Replies arrive in request order on each connection. *)
type pending = { req : int; due : float }

type phase = {
  lat : Util.Sample.t;  (** seconds, from due time (open) or send time (closed) *)
  late : Util.Sample.t;  (** open loop: send time minus due time *)
  per_conn : Util.Sample.t array;
  mutable replies : (int * Msg.t) list;  (** request index, reply *)
  mutable lost : int;
}

let new_phase () =
  {
    lat = Util.Sample.create ();
    late = Util.Sample.create ();
    per_conn = [| Util.Sample.create (); Util.Sample.create () |];
    replies = [];
    lost = 0;
  }

(* Drive both connections for one phase.  Open loop: request [k] goes
   out at [schedule.(k)] after the phase start, alternating connections,
   and its latency counts from that due time.  Closed loop: [window]
   requests stay outstanding per connection for [seconds].  Either way
   the phase ends when every reply is in; returns the next request index
   and the time to the last reply. *)
let drive d ph ~pool ~first_req ~schedule ~closed ~seconds =
  let queues = [| Queue.create (); Queue.create () |] in
  let next = ref first_req in
  let t0 = Util.now () in
  let sending = ref true in
  let send conn due =
    let i = !next in
    incr next;
    let _, pt = pool.(i mod Array.length pool) in
    let t = Util.now () in
    Sut.send_msg d.fds.(conn) (query pt);
    if not closed then Util.Sample.add ph.late (t -. due);
    Queue.push { req = i; due = (if closed then t else due) } queues.(conn)
  in
  if closed then
    for _ = 1 to window do
      send 0 t0;
      send 1 t0
    done;
  let k = ref 0 in
  let outstanding () = Queue.length queues.(0) + Queue.length queues.(1) in
  let deadline = t0 +. seconds +. 10. in
  let last = ref t0 in
  while (!sending || outstanding () > 0) && Util.now () < deadline do
    let now = Util.now () in
    if (not closed) && !sending then begin
      while !k < Array.length schedule && t0 +. schedule.(!k) <= Util.now () do
        send (!k land 1) (t0 +. schedule.(!k));
        incr k
      done;
      if !k >= Array.length schedule then sending := false
    end;
    if closed && now -. t0 >= seconds then sending := false;
    let timeout =
      if (not closed) && !sending then Float.max 0. (t0 +. schedule.(!k) -. Util.now ())
      else 0.05
    in
    let ready, _, _ = Unix.select (Array.to_list d.fds) [] [] timeout in
    List.iter
      (fun fd ->
        let conn = if fd == d.fds.(0) then 0 else 1 in
        match Sut.read_available d.readers.(conn) with
        | Error _ ->
          sending := false;
          ph.lost <- ph.lost + Queue.length queues.(conn);
          Queue.clear queues.(conn)
        | Ok msgs ->
          let t = Util.now () in
          List.iter
            (fun m ->
              match Queue.take_opt queues.(conn) with
              | None -> ph.lost <- ph.lost + 1
              | Some p ->
                Util.Sample.add ph.lat (t -. p.due);
                Util.Sample.add ph.per_conn.(conn) (t -. p.due);
                last := t;
                ph.replies <- (p.req, m) :: ph.replies;
                if closed && !sending then send conn t)
            msgs)
      ready
  done;
  ph.lost <- ph.lost + outstanding ();
  (!next, !last -. t0)

type measured = {
  setup : float array;
  openp : phase;
  closedp : phase;
  cycle_qps : float array;  (** closed-loop replies per second, one per cycle *)
  attempted : int;
  failed : int;
}

let measure ~seed ~seconds ~telemetry ~pool ~expected =
  let attempted = ref 0 and failed = ref 0 in
  let tally ok =
    incr attempted;
    if not ok then incr failed
  in
  let next = ref 0 in
  let setup_one tag =
    let i = !next mod Array.length pool in
    incr next;
    let d, dt, first = start ~tag ~telemetry (snd pool.(i)) in
    tally (match first with `Msg m -> Check.reply_ok expected.(i) m | _ -> false);
    (d, dt)
  in
  let d, dt = setup_one "main" in
  let setup = ref [ dt ] in
  let openp = new_phase () and closedp = new_phase () in
  let cycle_qps = Util.Sample.create () in
  let cycles = max 1 (int_of_float (Float.round (seconds /. cycle_s))) in
  let open_s = open_share *. cycle_s in
  for cycle = 0 to cycles - 1 do
    let schedule = Gen.arrivals ~seed ~cycle ~rate ~duration:open_s in
    let n, _ = drive d openp ~pool ~first_req:!next ~schedule ~closed:false ~seconds:open_s in
    let before = Util.Sample.length closedp.lat in
    let n, busy =
      drive d closedp ~pool ~first_req:n ~schedule:[||] ~closed:true
        ~seconds:(cycle_s -. open_s)
    in
    next := n;
    Util.Sample.add cycle_qps (float_of_int (Util.Sample.length closedp.lat - before) /. busy);
    let s, dt = setup_one (string_of_int cycle) in
    stop s;
    setup := dt :: !setup
  done;
  stop d;
  let check ph =
    List.iter
      (fun (i, m) -> tally (Check.reply_ok expected.(i mod Array.length pool) m))
      ph.replies;
    for _ = 1 to ph.lost do
      tally false
    done
  in
  check openp;
  check closedp;
  {
    setup = Array.of_list !setup;
    openp;
    closedp;
    cycle_qps = Util.Sample.to_array cycle_qps;
    attempted = !attempted;
    failed = !failed;
  }

(* In-process cost of answering one point, split the way the daemon
   spends it: the assessment (with its suffix-chain diagnostic for
   enumerable Delta), the human rendering, the frame encode. *)
type service = {
  assess_ms : float;
  diag_ms : float;  (** nan for Internet-scale points *)
  pp_us : float;
  encode_us : float;
  decode_us : float;
  reply_bytes : int;
}

(* Render, encode and decode take microseconds: time [reps] calls. *)
let reps = 30

let per_call f =
  let t0 = Util.now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Util.now () -. t0) /. float_of_int reps

let service_of (pt : Gen.point) =
  let params = Gen.params pt in
  let t0 = Util.now () in
  let a = Core.Assessment.assess params in
  let assess_s = Util.now () -. t0 in
  let pp_s = per_call (fun () -> Format.asprintf "%a" Core.Assessment.pp a) in
  let reply = Msg.Assess_reply (Check.reply_of_assessment a) in
  let encode_s = per_call (fun () -> Msg.encode reply) in
  let tag, payload = Msg.encode reply in
  let decode_s = per_call (fun () -> Msg.decode ~tag ~payload) in
  let diag_ms =
    if a.suffix_diagnostics = None then nan
    else begin
      let d = int_of_float pt.delta in
      let alpha = Core.Params.alpha params in
      let t5 = Util.now () in
      ignore (Markov.Chain.stationary_auto (Core.Suffix_chain.build ~delta:d ~alpha));
      (Util.now () -. t5) *. 1e3
    end
  in
  {
    assess_ms = assess_s *. 1e3;
    diag_ms;
    pp_us = pp_s *. 1e6;
    encode_us = encode_s *. 1e6;
    decode_us = decode_s *. 1e6;
    reply_bytes = String.length payload;
  }

(* Closed-loop capacity: the median over cycles of replies over the time
   the closed loop ran, so a slow spell of the host moves a cycle or
   two, not the figure. *)
let capacity m = Util.median m.cycle_qps

(* The diagnostic must be most of an enumerable point's service time. *)
let layer_checks ~diag_share =
  [ ("suffix_chain.diag_share_enumerable > 0.5", diag_share > 0.5) ]

let run ~seed ~seconds ~trace =
  let pool = Gen.rpc_pool ~seed in
  let expected =
    Array.mapi
      (fun i (_, pt) ->
        Check.maybe_spoil Check.spoil_reply i
          (Check.reply_of_assessment (Core.Assessment.assess (Gen.params pt))))
      pool
  in
  (* A traced run splits its time between an untraced and a traced
     measurement: their difference is the tracing overhead. *)
  let seconds = if trace then seconds /. 2. else seconds in
  let m = measure ~seed ~seconds ~telemetry:false ~pool ~expected in
  let lat ph = Array.map (fun x -> x *. 1e3) (Util.Sample.to_array ph.lat) in
  let ol = lat m.openp in
  let n_open = Array.length ol in
  let p50 = Util.median ol and p99 = Util.quantile ol 0.99 in
  let cap = capacity m in
  let late = Array.map (fun x -> x *. 1e3) (Util.Sample.to_array m.openp.late) in
  let late99 = Util.quantile late 0.99 in
  let setup_s = Util.median m.setup in
  let conn_p50 c = Util.median (Util.Sample.to_array m.openp.per_conn.(c)) *. 1e3 in
  let layers, checks, trace_report =
    if not trace then ([], [], [])
    else begin
      (* Layer costs on every pool point, in process. *)
      let svc = Array.map (fun (_, pt) -> service_of pt) pool in
      let col f = Array.map f svc in
      let enum_idx = List.filter (fun i -> fst pool.(i) = Gen.Enumerable) (List.init (Array.length pool) Fun.id) in
      let pick f = Array.of_list (List.map (fun i -> f svc.(i)) enum_idx) in
      let diag = pick (fun s -> s.diag_ms) in
      let enum_service = pick (fun s -> s.assess_ms +. (s.pp_us +. s.encode_us) /. 1e3) in
      let diag_share = Util.sum diag /. Util.sum enum_service in
      let service i = let s = svc.(i mod Array.length svc) in
        s.assess_ms +. ((s.pp_us +. s.encode_us) /. 1e3) in
      let rs = List.rev m.openp.replies in
      let reqs = Array.of_list (List.map fst rs) in
      let wait = Array.mapi (fun k i -> ol.(k) -. service i) reqs in
      (* Program-side telemetry on: the same measurement against
         [serve --telemetry], for the tracing overhead. *)
      let mt = measure ~seed ~seconds ~telemetry:true ~pool ~expected in
      let cap_t = capacity mt in
      ( [
          Util.m "suffix_chain.diag_ms_p50" "ms" (Util.median diag);
          Util.m "suffix_chain.diag_ms_p95" "ms" (Util.quantile diag 0.95);
          Util.m "suffix_chain.diag_share_enumerable" "ratio" diag_share;
          Util.m "rpc.service_ms_p50" "ms" (Util.median (Array.init (Array.length svc) service));
          Util.m "rpc.service_ms_p99" "ms" (Util.quantile (Array.init (Array.length svc) service) 0.99);
          Util.m "rpc.wait_ms_p99" "ms" (Util.quantile wait 0.99);
          Util.m "assessment.pp_us" "us" (Util.median (col (fun s -> s.pp_us)));
          Util.m "wire.encode_us" "us" (Util.median (col (fun s -> s.encode_us)));
          Util.m "wire.decode_us" "us" (Util.median (col (fun s -> s.decode_us)));
          Util.m "wire.reply_bytes" "bytes" (Util.median (col (fun s -> float_of_int s.reply_bytes)));
          Util.m "rpc.unix_p50_ms" "ms" (conn_p50 0);
          Util.m "rpc.tcp_p50_ms" "ms" (conn_p50 1);
          Util.m "rpc.gen_late_ms_p99" "ms" late99;
          Util.m "rpc.p50_ms" "ms" p50;
          Util.m "rpc.p99_ms" "ms" p99;
          Util.m "suffix_chain.diag_calls" "count" (float_of_int (Array.length diag));
          Util.m "trace.overhead_share" "ratio" ((cap -. cap_t) /. cap);
        ],
        layer_checks ~diag_share,
        [
          Printf.sprintf "traced capacity      %.1f q/s with serve --telemetry (untraced %.1f)" cap_t cap;
          Printf.sprintf "suffix_chain.diag_ms p95 over %d enumerable points" (Array.length diag);
        ] )
    end
  in
  {
    Util.attempted = m.attempted;
    failed = m.failed;
    e2e =
      [
        Util.m "setup_s" "s" setup_s;
        Util.m "ops_per_s" "1/s" cap;
      ];
    report =
      [
        Printf.sprintf "rpc_p50_ms           %.4f ms  (open loop, %g q/s Poisson, from due time, n=%d)" p50 rate n_open;
        Printf.sprintf "rpc_p99_ms           %.4f ms  (%d samples beyond)" p99 (n_open - int_of_float (0.99 *. float_of_int n_open));
        Printf.sprintf "rpc_capacity_qps     %.1f q/s  (closed loop, %d outstanding per connection, %d replies, median of %d cycles)" cap window
          (Util.Sample.length m.closedp.lat) (Array.length m.cycle_qps);
        Printf.sprintf "generator lateness   p50 %.4f ms, p99 %.4f ms" (Util.median late) late99;
        Printf.sprintf "unix / tcp p50       %.4f / %.4f ms" (conn_p50 0) (conn_p50 1);
        Printf.sprintf "setup_s              %.4f s  (median of %d daemon spawns to first reply)" setup_s
          (Array.length m.setup);
      ]
      @ trace_report;
    layers;
    checks;
  }
