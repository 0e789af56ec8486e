(* Seeded chaos A/B: the same fault plan with and without resilience. *)

module Plan = Mikpoly_fault.Plan
module Checksum = Mikpoly_util.Checksum

type arm = {
  arm_name : string;
  metrics : Metrics.t;
  injected_faults : int;
  crashes : int;
  silent_losses : int;
  status_digest : string;
}

type ab = { faults : Plan.t; with_resilience : arm; without_resilience : arm }

let digest named =
  List.map (fun (id, status) -> string_of_int id ^ "=" ^ status) named
  |> List.sort String.compare |> Checksum.fnv1a64_lines |> Checksum.to_hex

let status_tag = function
  | Scheduler.Completed -> "completed"
  | Scheduler.Rejected why -> "rejected:" ^ why
  | Scheduler.Timed_out -> "timed_out"
  | Scheduler.Failed why -> "failed:" ^ why

(* A request is silently lost when it has no terminal status, or more
   than one. Counts both directions so duplicated statuses also fail. *)
let silent_losses requests statuses =
  let seen = Hashtbl.create (List.length requests) in
  List.iter
    (fun (r, _) ->
      let id = r.Request.id in
      Hashtbl.replace seen id (1 + Option.value ~default:0 (Hashtbl.find_opt seen id)))
    statuses;
  List.fold_left
    (fun acc (r : Request.t) ->
      match Hashtbl.find_opt seen r.Request.id with
      | Some 1 -> acc
      | Some n -> acc + n  (* duplicated terminal states: also a lie *)
      | None -> acc + 1)
    0 requests

let run_arm ~arm_name ~faults ~resilience config engine requests =
  let outcome = Scheduler.run ~faults ?resilience config engine requests in
  let statuses = Scheduler.statuses outcome in
  {
    arm_name;
    metrics = Metrics.of_outcome outcome;
    injected_faults = outcome.Scheduler.injected_faults;
    crashes = outcome.Scheduler.crashes;
    silent_losses = silent_losses requests statuses;
    status_digest =
      digest (List.map (fun (r, s) -> (r.Request.id, status_tag s)) statuses);
  }

let run_ab ?(resilience = Scheduler.default_resilience) ~faults config engine
    requests =
  let with_resilience =
    run_arm ~arm_name:"resilience-on" ~faults ~resilience:(Some resilience)
      config engine requests
  in
  let without_resilience =
    run_arm ~arm_name:"resilience-off" ~faults ~resilience:None config engine
      requests
  in
  { faults; with_resilience; without_resilience }

let resilience_wins ab =
  ab.with_resilience.metrics.Metrics.slo_attainment
  > ab.without_resilience.metrics.Metrics.slo_attainment

let no_silent_losses ab =
  ab.with_resilience.silent_losses = 0
  && ab.without_resilience.silent_losses = 0
