module Frame = Nakamoto_wire.Frame
module Msg = Nakamoto_wire.Message
module Spec = Nakamoto_campaign.Spec
module Shard = Nakamoto_campaign.Shard
module Aggregate = Nakamoto_campaign.Aggregate
module Campaign = Nakamoto_campaign.Campaign
module Faultplan = Nakamoto_campaign.Faultplan
module Tel = Nakamoto_telemetry

let default_log msg = Printf.eprintf "worker[%d]: %s\n%!" (Unix.getpid ()) msg

let run ~addr ?(connect_timeout = 10.) ?(lease_batch = 1) ?fault
    ?(telemetry_clock = Unix.gettimeofday) ?(log = default_log) () =
  if lease_batch < 1 then invalid_arg "Worker.run: lease_batch must be >= 1";
  let ch =
    match Conn.establish ~addr ~timeout:connect_timeout ~role:Msg.Worker with
    | Ok ch -> ch
    | Error e -> failwith ("handshake failed: " ^ e)
  in
  let fd = Frame.Channel.fd ch in
  let fault = Option.map Faultplan.arm fault in
  (* Cache the decoded grid: every lease of one campaign carries the
     same spec, and [cells] must be recomputed only when it changes. *)
  let cache : (string * Spec.t * Spec.cell array) option ref = ref None in
  let cells_of spec =
    let key = Spec.to_json spec in
    match !cache with
    | Some (k, s, c) when k = key -> (s, c)
    | _ ->
      let c = Spec.cells spec in
      cache := Some (key, spec, c);
      (spec, c)
  in
  let computed = ref 0 in
  (* Heartbeats arrive on their own schedule — between a request and
     its grant, or queued up behind a long compute — and are answered
     wherever the worker happens to be reading. *)
  let rec recv () =
    match Msg.recv ch with
    | `Msg (Msg.Ping { nonce }) ->
      Msg.send ch (Msg.Pong { nonce });
      recv ()
    | `Timeout -> recv ()
    | other -> other
  in
  let compute spec cells { Msg.lease_id; shard } =
    let sreg = Tel.Registry.create ~clock:telemetry_clock () in
    let sp =
      Tel.Registry.span sreg
        ~labels:[ ("domain", string_of_int (Unix.getpid ())) ]
        "campaign_shard_seconds"
    in
    let began = Tel.Span.start sp in
    let agg =
      Faultplan.wrap_task fault ~task:shard.Shard.id (fun () ->
          Campaign.run_shard ~telemetry:sreg spec cells shard)
    in
    Tel.Span.stop sp began;
    incr computed;
    Msg.send ch
      (Msg.Cell_result
         {
           Msg.res_lease = lease_id;
           res_shard = shard.Shard.id;
           res_aggregate = Aggregate.snapshot agg;
           res_telemetry =
             Tel.Registry.Snapshot.entries (Tel.Registry.snapshot sreg);
         })
  in
  (* The daemon served its campaigns and closed up: normal exit. *)
  let closed () =
    log (Printf.sprintf "coordinator closed; %d shards computed" !computed)
  in
  let rec loop () =
    match Msg.send ch (Msg.Lease_request { max = lease_batch }) with
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      (* It closed between this worker's last frame and this request. *)
      closed ()
    | () -> (
      match recv () with
      | `Msg (Msg.Lease_grant { grants; spec }) ->
        let spec, cells = cells_of spec in
        List.iter (compute spec cells) grants;
        loop ()
      | `Msg (Msg.No_work { retry_after }) ->
        Unix.sleepf (Float.max 0.01 retry_after);
        loop ()
      | `Msg (Msg.Error e) -> failwith ("server error: " ^ e)
      | `Msg _ -> failwith "unexpected message from the coordinator"
      | `Timeout -> loop ()
      | `Eof -> closed ()
      | `Bad m -> failwith ("protocol error: " ^ m))
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    loop;
  !computed
