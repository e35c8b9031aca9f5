(* Expected answers, computed in process with the library, and the
   comparisons every workload applies to what the processes returned.
   [corrupt] deliberately spoils one expectation so the benchmark's own
   tests can show a check that fails. *)

module Core = Nakamoto_core
module Json = Nakamoto_campaign.Json
module Msg = Nakamoto_wire.Message

type corruption = No_corruption | Verdict | Journal_byte

let corrupt = ref No_corruption

(* ---- assess verdicts --------------------------------------------- *)

type verdict = {
  zone : string;
  margin : string;  (** rendered as the CLI renders it *)
  confirmations : int option;
  conf_reason : string option;
}

let verdict_of_assessment (a : Core.Assessment.t) =
  let v = Core.Assessment.verdict_of a in
  {
    zone = Core.Assessment.zone_to_string v.v_zone;
    margin = Json.float_str v.v_margin;
    confirmations = v.v_confirmations;
    conf_reason = v.v_conf_reason;
  }

let spoil_verdict v =
  { v with zone = (if v.zone = "SAFE" then "GAP" else "SAFE") }

(* Apply a [Verdict] corruption to expectation [i] = 0 of a workload. *)
let maybe_spoil spoil i x = if i = 0 && !corrupt = Verdict then spoil x else x

(* One [assess --stdin-jsonl] output line against the expected verdict
   for input line [line]. *)
let sweep_line_ok ~line (e : verdict) raw =
  match Json.parse raw with
  | exception Json.Malformed _ -> false
  | j -> (
    let str k = Option.map Json.to_string (Json.member_opt j k) in
    let num k = Option.map (function Json.Num s -> s | _ -> "") (Json.member_opt j k) in
    try
      Json.member_opt j "ok" = Some (Json.Bool true)
      && Option.map int_of_string (num "line") = Some line
      && str "zone" = Some e.zone
      && num "margin" = Some e.margin
      && Option.map int_of_string (num "confirmations") = e.confirmations
      && str "conf_reason" = e.conf_reason
    with Json.Malformed _ | Failure _ -> false)

(* The daemon's [Assess_reply] for a point, built from the in-process
   assessment: every field, including the rendered text that carries
   the confirmation depth or its unavailability reason. *)
let reply_of_assessment (a : Core.Assessment.t) =
  {
    Msg.a_zone = Core.Assessment.zone_to_string a.zone;
    a_neat_threshold = a.neat_threshold;
    a_neat_margin = a.neat_margin;
    a_attack_threshold = a.attack_threshold;
    a_confirmations =
      Option.map
        (fun (c : Core.Confirmation.assessment) -> c.confirmations)
        a.confirmations;
    a_rendered = Format.asprintf "%a" Core.Assessment.pp a;
  }

let spoil_reply (r : Msg.assess_reply) =
  { r with Msg.a_zone = (if r.a_zone = "SAFE" then "GAP" else "SAFE") }


let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let reply_ok (e : Msg.assess_reply) (m : Msg.t) =
  match m with
  | Msg.Assess_reply r ->
    r.a_zone = e.a_zone
    && same_float r.a_neat_threshold e.a_neat_threshold
    && same_float r.a_neat_margin e.a_neat_margin
    && same_float r.a_attack_threshold e.a_attack_threshold
    && r.a_confirmations = e.a_confirmations
    && String.equal r.a_rendered e.a_rendered
  | _ -> false

(* ---- journals ---------------------------------------------------- *)

(* Flip one byte in the middle of a reference journal. *)
let maybe_spoil_journal i s =
  if i = 0 && !corrupt = Journal_byte && String.length s > 0 then begin
    let b = Bytes.of_string s in
    let k = String.length s / 2 in
    Bytes.set b k (if Bytes.get b k = '0' then '1' else '0');
    Bytes.to_string b
  end
  else s

let journal_ok ~expected ~path =
  match Util.read_file path with
  | got -> String.equal got expected
  | exception Sys_error _ -> false
