(* Unit tests for the multi-tenant fleet: tenant traces, weighted fair
   queueing, the decayed shape-bucket learner, autoscaler hysteresis and
   fault-plane rules, and the fleet event loop's determinism and
   request-conservation invariants. *)

open Mikpoly_fleet
module Request = Mikpoly_serve.Request
module Batcher = Mikpoly_serve.Batcher
module Bucketing = Mikpoly_serve.Bucketing
module Scheduler = Mikpoly_serve.Scheduler
module Plan = Mikpoly_fault.Plan

let gold = { Tenant.tenant_id = 0; tenant_name = "gold"; tier = Tenant.Gold }
let silver = { Tenant.tenant_id = 1; tenant_name = "silver"; tier = Tenant.Silver }

let be =
  { Tenant.tenant_id = 2; tenant_name = "batch"; tier = Tenant.Best_effort }

let req ?(ttft = 0.25) ?(e2e = 2.0) ~id ~arrival ?(prompt = 8) ?(output = 2) () =
  {
    Request.id;
    arrival;
    prompt_len = prompt;
    output_len = output;
    slo = { Request.ttft; e2e };
  }

let tag tenant r = { Tenant.req = r; tenant }

let specs ?(rate = 40.) ?(count = 8) () =
  [
    { Tenant.tenant = gold; rate; count };
    { Tenant.tenant = silver; rate; count };
    { Tenant.tenant = be; rate; count };
  ]

let trace ?rate ?count () =
  Tenant.trace ~seed:7 ~max_prompt:64 ~max_output:4 (specs ?rate ?count ()) ()

let fleet_config =
  {
    Fleet.replicas = 2;
    batcher = Batcher.Greedy { max_batch = 4 };
    bucketing = Bucketing.Pow2;
    cache_capacity = 32;
    coalesce = false;
    steal_age = 0.05;
    warm = None;
    autoscale = None;
    ratelimit = None;
  }

(* --- Tenant --- *)

let test_trace_deterministic () =
  let t1 = trace () and t2 = trace () in
  Alcotest.(check bool) "identical traces" true (t1 = t2);
  let ids = List.map (fun (tg : Tenant.tagged) -> tg.req.Request.id) t1 in
  Alcotest.(check int)
    "unique fleet-wide ids"
    (List.length ids)
    (List.length (List.sort_uniq compare ids));
  let arrivals =
    List.map (fun (tg : Tenant.tagged) -> tg.req.Request.arrival) t1
  in
  Alcotest.(check bool)
    "arrival-ordered" true
    (arrivals = List.sort compare arrivals)

let test_trace_stream_independence () =
  (* Resizing one tenant must not perturb another tenant's arrivals. *)
  let big = trace ~count:8 () and small = trace ~count:2 () in
  let arrivals_of t tr =
    List.filter_map
      (fun (tg : Tenant.tagged) ->
        if tg.tenant.Tenant.tenant_id = t then Some tg.req.Request.arrival
        else None)
      tr
  in
  let prefix n l = List.filteri (fun i _ -> i < n) l in
  Alcotest.(check (list (float 1e-12)))
    "gold arrivals unchanged"
    (prefix 2 (arrivals_of 0 big))
    (arrivals_of 0 small)

let test_trace_rejects_duplicate_ids () =
  Alcotest.check_raises "duplicate tenant id"
    (Invalid_argument "Tenant.trace: duplicate tenant ids") (fun () ->
      ignore
        (Tenant.trace ~seed:1 ~max_prompt:8 ~max_output:2
           [
             { Tenant.tenant = gold; rate = 1.; count = 1 };
             { Tenant.tenant = { gold with tenant_name = "dup" }; rate = 1.; count = 1 };
           ]
           ()))

let test_lookup () =
  let tr = trace () in
  let first = List.hd tr in
  Alcotest.(check string)
    "lookup finds"
    first.Tenant.tenant.Tenant.tenant_name
    (Tenant.lookup tr first.Tenant.req.Request.id).Tenant.tenant_name;
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Tenant.lookup: unknown request id") (fun () ->
      ignore (Tenant.lookup tr 99999))

(* --- Wfq --- *)

let wfq () = Wfq.create ()

let take_ids q ~max =
  Wfq.take q ~max ~eligible:(fun _ -> true) ()
  |> List.map (fun (tg : Tenant.tagged) -> tg.req.Request.id)

let test_wfq_weighted_order () =
  let q = wfq () in
  (* Equal-cost backlogs: weight-4 gold finishes four grants per
     virtual-time unit the weight-1 batch tenant finishes one, and the
     tie at equal tags goes to the lower tenant id. *)
  for i = 0 to 4 do
    Wfq.push q (tag gold (req ~id:i ~arrival:0. ()))
  done;
  for i = 10 to 14 do
    Wfq.push q (tag be (req ~id:i ~arrival:0. ()))
  done;
  Alcotest.(check (list int))
    "gold drains 4:1" [ 0; 1; 2; 3; 10; 4 ] (take_ids q ~max:6);
  let s = Wfq.stats q in
  Alcotest.(check (list int))
    "grants per lane" [ 5; 1 ]
    (List.map (fun l -> l.Wfq.s_grants) s);
  Alcotest.(check (list int))
    "queued per lane" [ 0; 4 ]
    (List.map (fun l -> l.Wfq.s_queued) s)

let test_wfq_starvation_bound () =
  let q = wfq () in
  for i = 0 to 19 do
    Wfq.push q (tag gold (req ~id:i ~arrival:0. ()))
  done;
  Wfq.push q (tag be (req ~id:100 ~arrival:0. ()));
  let granted = take_ids q ~max:6 in
  Alcotest.(check bool)
    "weight-1 tenant served within one weight-4 round" true
    (List.mem 100 granted)

let test_wfq_push_front () =
  let q = wfq () in
  Wfq.push q (tag gold (req ~id:0 ~arrival:0. ()));
  Wfq.push q (tag gold (req ~id:1 ~arrival:0. ()));
  Alcotest.(check (list int)) "fifo head" [ 0 ] (take_ids q ~max:1);
  Wfq.push_front q (tag gold (req ~id:0 ~arrival:0. ()));
  Alcotest.(check (list int))
    "requeued request goes first" [ 0; 1 ] (take_ids q ~max:2);
  Alcotest.(check bool) "drained" true (Wfq.is_empty q)

let test_wfq_fold_order () =
  let q = wfq () in
  List.iter (fun id -> Wfq.push q (tag gold (req ~id ~arrival:0. ()))) [ 0; 1; 2 ];
  Wfq.push q (tag be (req ~id:10 ~arrival:0. ()));
  Alcotest.(check (list int)) "grant" [ 0 ] (take_ids q ~max:1);
  (* gold's lane is now a granted-from front and a pushed-to back. *)
  Wfq.push q (tag gold (req ~id:3 ~arrival:0. ()));
  Wfq.push_front q (tag gold (req ~id:4 ~arrival:0. ()));
  Alcotest.(check (list int))
    "tenant id, then FIFO" [ 4; 1; 2; 3; 10 ]
    (List.rev
       (Wfq.fold q (fun acc (tg : Tenant.tagged) -> tg.req.Request.id :: acc) []))

let test_wfq_eligible_filter () =
  let q = wfq () in
  Wfq.push q (tag gold (req ~id:0 ~arrival:5. ()));
  let late =
    Wfq.take q ~max:1
      ~eligible:(fun tg -> tg.Tenant.req.Request.arrival <= 1.)
      ()
  in
  Alcotest.(check int) "nothing eligible" 0 (List.length late);
  Alcotest.(check int) "still queued" 1 (Wfq.length q)

let test_wfq_group_coalescing () =
  let q = wfq () in
  Wfq.push q (tag gold (req ~id:0 ~arrival:0. ~prompt:8 ()));
  Wfq.push q (tag silver (req ~id:1 ~arrival:0. ~prompt:16 ()));
  Wfq.push q (tag be (req ~id:2 ~arrival:0. ~prompt:8 ()));
  let same_prompt (l : Tenant.tagged) (r : Tenant.tagged) =
    l.req.Request.prompt_len = r.req.Request.prompt_len
  in
  let ids =
    Wfq.take q ~max:3
      ~eligible:(fun _ -> true)
      ~group:same_prompt ()
    |> List.map (fun (tg : Tenant.tagged) -> tg.req.Request.id)
  in
  (* The best-effort shape-mate jumps ahead of silver's smaller WFQ tag
     into the leader's group; the mismatched silver request still rides
     along once the group is exhausted (work conservation). *)
  Alcotest.(check (list int)) "group-first order" [ 0; 2; 1 ] ids

let test_wfq_first_filter_gates_offer () =
  let q = wfq () in
  Wfq.push q (tag gold (req ~id:0 ~arrival:0. ~prompt:8 ()));
  let none =
    Wfq.take q ~max:2
      ~eligible:(fun _ -> true)
      ~first:(fun tg -> tg.Tenant.req.Request.prompt_len = 16)
      ()
  in
  Alcotest.(check int) "offer declined entirely" 0 (List.length none);
  Alcotest.(check int) "nothing consumed" 1 (Wfq.length q)

(* The queue against a model of one FIFO per tenant: random pushes
   (tied arrivals, repeated ids, copies of queued requests), lane-head
   requeues, takes under random filters and whole-queue drains into a
   fresh queue. A push appends to its tenant's FIFO, a head push
   prepends, and every grant must be, and removes, its lane's head.
   After every operation the queue holds exactly the model's requests,
   and [fold_heads] yields the non-empty FIFOs' heads in tenant order. *)
type wfq_op =
  | Push of int * int * float * int  (* tenant, id, arrival, prompt *)
  | Push_front of int * int * float * int
  | Copy of int  (* push the k-th queued request again *)
  | Take of int * float * int option * bool
      (* max, eligible arrival cutoff, first-grant prompt, group *)
  | Drain

let show_wfq_op = function
  | Push (t, id, a, p) -> Printf.sprintf "push(%d,#%d,%g,%d)" t id a p
  | Push_front (t, id, a, p) -> Printf.sprintf "front(%d,#%d,%g,%d)" t id a p
  | Copy k -> Printf.sprintf "copy %d" k
  | Take (m, cut, first, group) ->
    Printf.sprintf "take(%d,<=%g,%s,%b)" m cut
      (match first with Some p -> string_of_int p | None -> "-")
      group
  | Drain -> "drain"

let arb_wfq_ops =
  let open QCheck.Gen in
  let request =
    quad (int_bound 2) (int_bound 11) (oneofl [ 0.; 1.; 2.; 3. ])
      (oneofl [ 8; 16; 32 ])
  in
  let op =
    frequency
      [
        (5, map (fun (t, id, a, p) -> Push (t, id, a, p)) request);
        (2, map (fun (t, id, a, p) -> Push_front (t, id, a, p)) request);
        (1, map (fun k -> Copy k) (int_bound 20));
        ( 3,
          map
            (fun (m, cut, first, group) -> Take (m, cut, first, group))
            (quad (int_bound 4)
               (oneofl [ 0.; 1.; 2.; 3. ])
               (opt (oneofl [ 8; 16; 32 ]))
               bool) );
        (1, return Drain);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_wfq_op ops))
    (list_size (int_range 1 60) op)

let replay_wfq ops =
  let tenants = [| gold; silver; be |] in
  let signature (tg : Tenant.tagged) = tg.req.Request.prompt_len in
  let q = ref (Wfq.create ()) and lanes = Array.make 3 [] in
  let key (tg : Tenant.tagged) = (tg.req.Request.arrival, tg.req.Request.id) in
  let show = QCheck.Print.(list (pair float int)) in
  let fail what expected got =
    QCheck.Test.fail_reportf "%s: expected %s, got %s" what expected got
  in
  let lane_of (tg : Tenant.tagged) = tg.tenant.Tenant.tenant_id in
  let observe () =
    let model = List.concat (Array.to_list lanes) in
    let contents = Wfq.fold !q (fun acc tg -> tg :: acc) [] in
    if Wfq.length !q <> List.length model then
      fail "length" (string_of_int (List.length model))
        (string_of_int (Wfq.length !q));
    if List.sort compare contents <> List.sort compare model then
      fail "contents" (show (List.map key model)) (show (List.map key contents));
    let expected =
      List.filter_map (function [] -> None | tg :: _ -> Some tg) (Array.to_list lanes)
    and got = List.rev (Wfq.fold_heads !q (fun acc tg -> tg :: acc) []) in
    if expected <> got then
      fail "heads" (show (List.map key expected)) (show (List.map key got))
  in
  let make t id arrival prompt = tag tenants.(t) (req ~id ~arrival ~prompt ()) in
  let append (tg : Tenant.tagged) = lanes.(lane_of tg) <- lanes.(lane_of tg) @ [ tg ] in
  List.iter
    (fun op ->
      (match op with
      | Push (t, id, a, p) ->
        let tg = make t id a p in
        Wfq.push !q tg;
        append tg
      | Push_front (t, id, a, p) ->
        let tg = make t id a p in
        Wfq.push_front !q tg;
        lanes.(t) <- tg :: lanes.(t)
      | Copy k -> (
        match List.concat (Array.to_list lanes) with
        | [] -> ()
        | m ->
          let tg = List.nth m (k mod List.length m) in
          Wfq.push !q tg;
          append tg)
      | Take (max, cut, first, group) ->
        let granted =
          Wfq.take !q ~max
            ~eligible:(fun tg -> tg.req.Request.arrival <= cut)
            ~first:(fun tg ->
              match first with
              | Some p -> tg.req.Request.prompt_len = p
              | None -> true)
            ~group:(fun l tg -> (not group) || signature l = signature tg)
            ()
        in
        List.iter
          (fun tg ->
            match lanes.(lane_of tg) with
            | h :: rest when h = tg -> lanes.(lane_of tg) <- rest
            | lane ->
              fail "granted a lane head" (show (List.map key lane)) (show [ key tg ]))
          granted
      | Drain ->
        let fresh = Wfq.create () in
        Wfq.fold !q (fun () tg -> Wfq.push fresh tg) ();
        q := fresh);
      observe ())
    ops;
  true

(* Long lanes, head pushes into them and whole-queue drains: the heads
   stay the model's through every lane's front/back rebalancing. *)
let test_wfq_heads_deep () =
  let ascending tenant base =
    List.init 40 (fun i -> Push (tenant, base + i, float_of_int i, 8))
  in
  Alcotest.(check bool)
    "heads equal the model's" true
    (replay_wfq
       (ascending 0 0 @ ascending 2 100
       @ [
           Take (5, 50., None, true);
           Push_front (0, 200, -1., 8);
           Push_front (2, 201, 5., 8);
           Take (30, 50., None, false);
           Drain;
           Push (1, 202, 0.5, 8);
           Take (60, 50., None, true);
         ]))

let prop_wfq_heads =
  QCheck.Test.make ~name:"lane heads match a FIFO per tenant" ~count:500
    arb_wfq_ops replay_wfq

(* --- Learner --- *)

let test_learner_decay_and_ranking () =
  let l = Learner.create () in
  Learner.observe l ~now:0. ~tenant:0 ~signature:64 ~weight:4.;
  Learner.observe l ~now:0. ~tenant:1 ~signature:128 ~weight:1.;
  (match Learner.top_k l ~now:0. ~k:2 with
  | [ (64, m1); (128, m2) ] ->
    Alcotest.(check (float 1e-9)) "gold mass" 4. m1;
    Alcotest.(check (float 1e-9)) "be mass" 1. m2
  | other ->
    Alcotest.failf "unexpected ranking (%d entries)" (List.length other));
  (* One half-life halves the old mass; fresh mass overtakes it. *)
  Learner.observe l ~now:1. ~tenant:1 ~signature:128 ~weight:3.;
  (match Learner.top_k l ~now:1. ~k:2 with
  | [ (128, m1); (64, m2) ] ->
    Alcotest.(check (float 1e-9)) "decayed+fresh" 3.5 m1;
    Alcotest.(check (float 1e-9)) "halved" 2. m2
  | other ->
    Alcotest.failf "unexpected ranking (%d entries)" (List.length other))

let test_learner_ties_to_smaller_signature () =
  let l = Learner.create () in
  Learner.observe l ~now:0. ~tenant:0 ~signature:512 ~weight:1.;
  Learner.observe l ~now:0. ~tenant:0 ~signature:32 ~weight:1.;
  Alcotest.(check (list int))
    "tie breaks small-first" [ 32; 512 ]
    (List.map fst (Learner.top_k l ~now:0. ~k:4));
  Alcotest.(check (list int))
    "signatures ascending" [ 32; 512 ] (Learner.signatures l)

(* The warm store's mass-aware admission: the cache the fleet precompiles
   into is weighted by decayed learner mass, so a heavy-tail tenant's hot
   bucket must survive a scan of cold, never-repeated buckets — the exact
   failure mode of plain LRU, where any scan longer than the capacity
   flushes everything. *)
let test_warm_admission_survives_cold_scan () =
  let module Shape_cache = Mikpoly_serve.Shape_cache in
  let l = Learner.create () in
  (* One hot bucket and three mildly warm ones; the scan's buckets are
     never observed, so their mass is 0. *)
  Learner.observe l ~now:0. ~tenant:0 ~signature:1 ~weight:100.;
  List.iter
    (fun s -> Learner.observe l ~now:0. ~tenant:1 ~signature:s ~weight:1.)
    [ 2; 3; 4 ];
  let cache =
    Shape_cache.create_weighted
      ~weight:(fun (s, _, _) -> Learner.mass l ~now:0. ~signature:s)
      ~capacity:4
  in
  List.iter (fun s -> Shape_cache.add cache (s, 0, 0) ()) [ 1; 2; 3; 4 ];
  (* A cold-bucket scan 5x the capacity: every insert is refused (mass 0
     is strictly below every resident's), so the working set survives
     untouched. Under plain LRU this scan would evict all four. *)
  for s = 100 to 119 do
    Shape_cache.add cache (s, 0, 0) ()
  done;
  Alcotest.(check int) "every cold insert refused" 20
    (Shape_cache.rejections cache);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d survived the scan" s)
        true
        (Shape_cache.mem cache (s, 0, 0)))
    [ 1; 2; 3; 4 ];
  (* A newly hot bucket still gets in — admission is mass-aware, not
     frozen: it evicts the lowest-mass resident, never the hot bucket. *)
  Learner.observe l ~now:0. ~tenant:2 ~signature:5 ~weight:50.;
  Shape_cache.add cache (5, 0, 0) ();
  Alcotest.(check bool) "new hot bucket admitted" true
    (Shape_cache.mem cache (5, 0, 0));
  Alcotest.(check bool) "hottest bucket still resident" true
    (Shape_cache.mem cache (1, 0, 0));
  Alcotest.(check int) "capacity respected" 4 (Shape_cache.size cache)

let test_learner_mass_decays_to_harmless () =
  let l = Learner.create () in
  Learner.observe l ~now:0. ~tenant:0 ~signature:8 ~weight:16.;
  Alcotest.(check (float 1e-9)) "fresh mass" 16. (Learner.mass l ~now:0. ~signature:8);
  Alcotest.(check (float 1e-9)) "one half-life" 8. (Learner.mass l ~now:1. ~signature:8);
  Alcotest.(check (float 1e-9)) "four half-lives" 1. (Learner.mass l ~now:4. ~signature:8);
  Alcotest.(check (float 1e-9)) "never observed" 0. (Learner.mass l ~now:0. ~signature:9)

(* --- Autoscaler --- *)

let asc =
  {
    Autoscaler.min_replicas = 1;
    max_replicas = 4;
    up_queue_depth = 4.;
    down_queue_depth = 1.;
    cooldown = 1.0;
    interval = 0.25;
  }

let sig_ ?(queue = 0.) ?(slo = 1.) ?(stall = 0.) ?(live = 2) ?(down = 0) () =
  {
    Autoscaler.queue_depth = queue;
    slo_attainment = slo;
    stall_ratio = stall;
    live_replicas = live;
    down_replicas = down;
  }

let decision = Alcotest.testable
    (fun fmt d -> Format.pp_print_string fmt (Autoscaler.decision_name d))
    ( = )

let decide = Autoscaler.decide asc ~last_change:0.

let test_autoscaler_hysteresis () =
  Alcotest.check decision "above up threshold" Autoscaler.Scale_up
    (decide ~now:2. (sig_ ~queue:5. ()));
  Alcotest.check decision "inside the band" Autoscaler.Hold
    (decide ~now:2. (sig_ ~queue:2. ()));
  Alcotest.check decision "below down threshold" Autoscaler.Scale_down
    (decide ~now:2. (sig_ ~queue:0.5 ()));
  Alcotest.check decision "slo breach scales up" Autoscaler.Scale_up
    (decide ~now:2. (sig_ ~queue:0. ~slo:0.5 ()));
  Alcotest.check decision "cooldown holds" Autoscaler.Hold
    (decide ~now:0.5 (sig_ ~queue:5. ()))

let test_autoscaler_bounds_and_stalls () =
  Alcotest.check decision "at max replicas" Autoscaler.Hold
    (decide ~now:2. (sig_ ~queue:9. ~live:4 ()));
  Alcotest.check decision "down replica counts against capacity"
    Autoscaler.Hold
    (decide ~now:2. (sig_ ~queue:9. ~live:3 ~down:1 ()));
  Alcotest.check decision "at min replicas" Autoscaler.Hold
    (decide ~now:2. (sig_ ~queue:0. ~live:1 ()));
  Alcotest.check decision "compile-bound fleet holds" Autoscaler.Hold
    (decide ~now:2. (sig_ ~queue:9. ~stall:0.8 ()))

let test_autoscaler_fault_rules () =
  Alcotest.check decision "crash is not a scale-down signal"
    Autoscaler.Hold
    (decide ~now:2. (sig_ ~queue:0. ~live:3 ~down:1 ()));
  Alcotest.check decision "below floor bypasses cooldown"
    Autoscaler.Scale_up
    (decide ~now:0.01 (sig_ ~live:0 ~down:0 ()))

let test_autoscaler_validate () =
  Alcotest.check_raises "no hysteresis gap"
    (Invalid_argument
       "Autoscaler: need 0 <= down_queue_depth < up_queue_depth (hysteresis)")
    (fun () -> Autoscaler.validate { asc with down_queue_depth = 4. });
  Alcotest.check_raises "bad bounds"
    (Invalid_argument "Autoscaler: max_replicas must be >= min_replicas")
    (fun () -> Autoscaler.validate { asc with max_replicas = 0 });
  (* NaN fails every range check; a NaN interval would never let the
     fleet's event clock move past the tick. *)
  let hysteresis =
    Invalid_argument
      "Autoscaler: need 0 <= down_queue_depth < up_queue_depth (hysteresis)"
  in
  Alcotest.check_raises "up_queue_depth nan" hysteresis (fun () ->
      Autoscaler.validate { asc with up_queue_depth = nan });
  Alcotest.check_raises "down_queue_depth nan" hysteresis (fun () ->
      Autoscaler.validate { asc with down_queue_depth = nan });
  Alcotest.check_raises "cooldown nan"
    (Invalid_argument "Autoscaler: cooldown must be >= 0") (fun () ->
      Autoscaler.validate { asc with cooldown = nan });
  Alcotest.check_raises "interval nan"
    (Invalid_argument "Autoscaler: interval must be > 0") (fun () ->
      Autoscaler.validate { asc with interval = nan })

(* --- Fleet --- *)

let engine = Scheduler.synthetic_engine ~compile:1e-3 ~shape_families:2 ()

let full_config =
  {
    fleet_config with
    coalesce = true;
    warm = Some { Fleet.warm_top_k = 8; warm_interval = 0.01 };
    autoscale = Some { asc with cooldown = 0.05; interval = 0.05 };
  }

let test_fleet_deterministic () =
  let tr = trace () in
  let o1 = Fleet.run full_config engine tr in
  let o2 = Fleet.run full_config engine tr in
  Alcotest.(check bool) "bit-identical outcomes" true (o1 = o2)

let test_fleet_conserves_requests () =
  let tr = trace () in
  let check_arm name config =
    let o = Fleet.run config engine tr in
    Alcotest.(check int)
      (name ^ ": completed+dropped covers the trace")
      (List.length tr)
      (List.length o.Fleet.completed + List.length o.Fleet.dropped)
  in
  check_arm "plain" fleet_config;
  check_arm "coalesced" { fleet_config with coalesce = true };
  check_arm "full" full_config

let test_fleet_validate () =
  Alcotest.check_raises "no replicas"
    (Invalid_argument "Fleet: replicas must be >= 1") (fun () ->
      ignore (Fleet.run { fleet_config with replicas = 0 } engine []));
  Alcotest.check_raises "bad warm interval"
    (Invalid_argument "Fleet: warm_interval must be > 0") (fun () ->
      Fleet.validate
        {
          fleet_config with
          warm = Some { Fleet.warm_top_k = 8; warm_interval = 0. };
        });
  (* The batcher policy fails before the first event, not at the first
     step; and NaN fails every range check — a NaN window, age or
     interval would never let the event clock move on, and a NaN rate
     would shed every request. *)
  let rejects name message config =
    Alcotest.check_raises name (Invalid_argument message) (fun () ->
        Fleet.validate config)
  in
  rejects "max_batch 0" "Batcher: max_batch must be >= 1"
    { fleet_config with batcher = Batcher.Greedy { max_batch = 0 } };
  rejects "window nan" "Batcher: timeout window must be >= 0"
    { fleet_config with batcher = Batcher.Timeout { max_batch = 4; window = nan } };
  rejects "steal_age nan" "Fleet: steal_age must be >= 0"
    { fleet_config with steal_age = nan };
  rejects "warm_interval nan" "Fleet: warm_interval must be > 0"
    { fleet_config with warm = Some { Fleet.warm_top_k = 8; warm_interval = nan } };
  let rl = { Ratelimit.rl_rate = 100.; rl_burst = 3. } in
  rejects "rl_rate nan" "Ratelimit: rate must be > 0"
    { fleet_config with ratelimit = Some { rl with rl_rate = nan } };
  rejects "rl_burst nan" "Ratelimit: burst must be >= 1"
    { fleet_config with ratelimit = Some { rl with rl_burst = nan } };
  let health name message config =
    Alcotest.check_raises name (Invalid_argument message) (fun () ->
        Health.validate config)
  in
  health "ewma_alpha nan" "Health: ewma_alpha must be in (0, 1]"
    { Health.default with ewma_alpha = nan };
  health "degrade_enter nan" "Health: degrade_enter must be > 1"
    { Health.default with degrade_enter = nan };
  health "degrade_exit nan"
    "Health: degrade_exit must be < degrade_enter (hysteresis)"
    { Health.default with degrade_exit = nan };
  health "min_dwell nan" "Health: min_dwell must be >= 0"
    { Health.default with min_dwell = nan };
  health "breaker cooldown nan" "Breaker: cooldown must be >= 0"
    { Health.default with breaker = { Health.default.breaker with cooldown = nan } };
  (* A trace the loop cannot drain fails before the first event too: a
     request with nothing to decode never completes, a NaN arrival has
     no place in the arrival order, and a repeated id would leave one
     request without a terminal status. *)
  let run_trace name message trace =
    Alcotest.check_raises name (Invalid_argument message) (fun () ->
        ignore (Fleet.run fleet_config engine trace))
  in
  run_trace "output 0" "Fleet: request 0 has output_len 0, below 1"
    [ tag gold (req ~id:0 ~arrival:0. ~output:0 ()) ];
  run_trace "arrival nan" "Fleet: request 1 arrives at nan"
    [ tag gold (req ~id:0 ~arrival:0. ()); tag gold (req ~id:1 ~arrival:nan ()) ];
  run_trace "repeated id" "Fleet: request id 1 appears more than once"
    [ tag gold (req ~id:1 ~arrival:0. ()); tag silver (req ~id:1 ~arrival:0.01 ()) ];
  (* The mixed fleet's hedge goes through the same checks: a NaN slack
     would otherwise never hedge. *)
  let module Hetero = Mikpoly_hetero.Hetero in
  let backend hw = Mikpoly_hetero.Backend.make ~hw ~replicas:1 engine in
  let hedged slack =
    {
      Hetero.backends =
        [
          backend Mikpoly_accel.Hardware.a100;
          backend Mikpoly_accel.Hardware.ascend910;
        ];
      batcher = fleet_config.batcher;
      bucketing = fleet_config.bucketing;
      cache_capacity = fleet_config.cache_capacity;
      coalesce = false;
      health = Health.default;
      degraded_max_tokens = 16;
      hedge = Some { Hetero.default_hedge with hedge_slack = slack };
      failover = true;
      ratelimit = None;
    }
  in
  List.iter
    (fun (name, slack) ->
      Alcotest.check_raises name
        (Invalid_argument "Fleet: hedge_slack must be in (0, 1]") (fun () ->
          ignore (Hetero.run (hedged slack) (trace ~count:2 ()))))
    [ ("hedge_slack nan", nan); ("hedge_slack 0", 0.) ]

let test_fleet_coalescing_cuts_stalls () =
  (* A synchronized burst of same-shape prompts from all three tenants:
     the coalescer must pull them into shared-signature admissions. *)
  let tr =
    List.concat_map
      (fun (tenant, base) ->
        List.init 4 (fun i ->
            tag tenant (req ~id:(base + i) ~arrival:0. ~prompt:8 ())))
      [ (gold, 0); (silver, 10); (be, 20) ]
  in
  let plain = Fleet.run fleet_config engine tr in
  let grouped = Fleet.run { fleet_config with coalesce = true } engine tr in
  Alcotest.(check bool)
    "groups formed" true
    (grouped.Fleet.coalesced_groups > 0);
  Alcotest.(check bool)
    "no more stalls than uncoalesced" true
    (grouped.Fleet.compile_stall_seconds
    <= plain.Fleet.compile_stall_seconds +. 1e-12)

let test_fleet_warm_store_offloads_compiles () =
  let tr = trace ~count:24 () in
  let warm = Fleet.run full_config engine tr in
  (match warm.Fleet.warm_stats with
  | None -> Alcotest.fail "warm store enabled but no stats"
  | Some _ -> ());
  Alcotest.(check bool)
    "fleet-shared cache engaged" true
    (warm.Fleet.warm_hits > 0);
  let cold = Fleet.run { full_config with warm = None } engine tr in
  Alcotest.(check bool)
    "warm fleet stalls no more than cold" true
    (warm.Fleet.compile_stall_seconds
    <= cold.Fleet.compile_stall_seconds +. 1e-12)

let test_fleet_crash_requeues_and_conserves () =
  let tr = trace ~count:16 () in
  let plan = Plan.make ~crashes:[ (0.02, 0) ] ~restart_delay:0.05 ~seed:3 () in
  let o = Fleet.run ~faults:plan fleet_config engine tr in
  Alcotest.(check int) "crash injected" 1 o.Fleet.crashes;
  Alcotest.(check int)
    "no request lost to the crash"
    (List.length tr)
    (List.length o.Fleet.completed + List.length o.Fleet.dropped);
  let calm = Fleet.run fleet_config engine tr in
  Alcotest.(check bool)
    "crash cannot speed the fleet up" true
    (o.Fleet.makespan >= calm.Fleet.makespan -. 1e-12)

let test_fleet_autoscaler_stays_in_bounds () =
  let tr = trace ~count:24 () in
  let o = Fleet.run full_config engine tr in
  (match full_config.autoscale with
  | None -> Alcotest.fail "autoscale arm missing"
  | Some a ->
    Alcotest.(check bool)
      "peak within max" true
      (o.Fleet.peak_replicas <= a.Autoscaler.max_replicas));
  Alcotest.(check bool)
    "replica-seconds accounted" true
    (o.Fleet.replica_seconds > 0.)

let test_fleet_scheduler_projection () =
  let tr = trace () in
  let o = Fleet.run fleet_config engine tr in
  let s = Fleet.to_scheduler_outcome o in
  Alcotest.(check int)
    "completions carried over"
    (List.length o.Fleet.completed)
    (List.length s.Scheduler.completed);
  Alcotest.(check int) "no rejections modeled" 0
    (List.length s.Scheduler.rejected);
  Alcotest.(check (float 1e-12))
    "stall carried over" o.Fleet.compile_stall_seconds
    s.Scheduler.compile_stall_seconds;
  let tier_reqs =
    List.fold_left (fun acc t -> acc + t.Fleet.tm_requests) 0 o.Fleet.tiers
  in
  Alcotest.(check int) "tier rows partition the trace" (List.length tr)
    tier_reqs

(* Both serving loops refuse an empty prompt before their first event:
   it has no token bucket, so the fleet would otherwise raise from inside
   its loop while the single-tenant scheduler served it. *)
let test_zero_prompt_rejected () =
  let r = req ~id:0 ~arrival:0. ~prompt:0 () in
  let config =
    {
      Scheduler.replicas = 1;
      batcher = fleet_config.batcher;
      bucketing = fleet_config.bucketing;
      cache_capacity = fleet_config.cache_capacity;
    }
  in
  Alcotest.check_raises "Scheduler.run"
    (Invalid_argument "Scheduler.run: request 0 has prompt_len 0, below 1")
    (fun () -> ignore (Scheduler.run config engine [ r ]));
  Alcotest.check_raises "Fleet.run"
    (Invalid_argument "Fleet: request 0 has prompt_len 0, below 1")
    (fun () -> ignore (Fleet.run fleet_config engine [ tag gold r ]))

(* An outcome reduced to a fingerprint: status digest, steps, the exact
   bits of makespan and stall, and every cache's hits/misses (warm store
   last). *)
let fingerprint (o : Fleet.outcome) =
  let statuses =
    List.map
      (fun (c : Scheduler.completed) -> (c.request.Request.id, "completed"))
      o.Fleet.completed
    @ List.map (fun (r : Request.t) -> (r.Request.id, "dropped")) o.Fleet.dropped
    @ List.map
        (fun (r : Request.t) -> (r.Request.id, "rate-limited"))
        o.Fleet.rate_limited
  in
  let digest =
    List.map (fun (id, st) -> Printf.sprintf "%d=%s" id st) statuses
    |> List.sort compare |> String.concat "\n"
    |> Mikpoly_util.Checksum.fnv1a64_hex
  in
  let caches = o.Fleet.cache @ Option.to_list o.Fleet.warm_stats in
  Printf.sprintf "%s steps=%d makespan=%h stall=%h caches=%s" digest
    o.Fleet.steps o.Fleet.makespan o.Fleet.compile_stall_seconds
    (String.concat ";"
       (List.map
          (fun (s : Mikpoly_serve.Shape_cache.stats) ->
            Printf.sprintf "%d/%d" s.hits s.misses)
          caches))

let crash_plan =
  Plan.make ~crashes:[ (0.02, 0); (0.06, 1) ] ~restart_delay:0.05 ~seed:3 ()

(* The full fleet (coalescing, warm store, autoscaler) under a crash
   plan. *)
let test_fleet_pinned () =
  let o = Fleet.run ~faults:crash_plan full_config engine (trace ~count:16 ()) in
  Alcotest.(check string)
    "fingerprint"
    "c0fe7e1c0707d0ad steps=95 makespan=0x1.2131a07066c95p-1 \
     stall=0x1.cac083126e979p-7 caches=754/14;0/0;90/14;50/6;20/14"
    (fingerprint o)

(* The same fleet at depth: 2 001 requests at 1 800 req/s keep hundreds
   queued (mean depth 387 under Slo_aware, 492 under Timeout, whose deep
   queue takes [aged_time]'s full-batch branch), where an idle replica's
   wake-up time is a minimum over the whole class queue. *)
let test_fleet_pinned_overload () =
  let tr = trace ~rate:600. ~count:667 () in
  List.iter
    (fun (batcher, expected) ->
      let o =
        Fleet.run ~faults:crash_plan { full_config with batcher } engine tr
      in
      let name = Mikpoly_serve.Batcher.name batcher in
      let depth =
        float_of_int o.Fleet.queue_depth_sum /. float_of_int o.Fleet.queue_samples
      in
      Alcotest.(check bool) (name ^ ": mean depth >= 200") true (depth >= 200.);
      Alcotest.(check string) name expected
        (Printf.sprintf "%s depth_sum=%d" (fingerprint o) o.Fleet.queue_depth_sum))
    [
      ( Batcher.Slo_aware { max_batch = 4 },
        "9cd966364acca5f3 steps=1149 makespan=0x1.5916ba00c247fp+0 \
         stall=0x1.0624dd2f1a9fcp-6 \
         caches=4562/14;4442/14;4370/14;4570/14;30/10;162/14;68/12 \
         depth_sum=444907" );
      ( Batcher.Timeout { max_batch = 4; window = 0.01 },
        "aeaf220f30972e5b steps=1524 makespan=0x1.f0a106756507p+0 \
         stall=0x1.cac083126e979p-7 \
         caches=6314/14;6522/14;6370/14;6506/14;32/8;108/12;64/12 \
         depth_sum=752149" );
    ]

let nudges () =
  Mikpoly_telemetry.Metrics.(counter_value (counter "replica.idle_nudges"))

(* The re-arm storm: 2 001 requests at 600 req/s under a Timeout batcher,
   with coalescing and [steal_age] 0.05. A wake-up taken as a minimum
   over every queued request, while [Wfq.take] grants only lane heads,
   woke replicas that could take nothing and re-armed each 1 µs later:
   761 701 nudges for 2 037 steps. Waking a replica only when a lane
   head can be granted nudges none. *)
let test_fleet_no_rearm_storm () =
  let before = nudges () in
  let o =
    Fleet.run
      { full_config with batcher = Batcher.Timeout { max_batch = 4; window = 0.01 } }
      engine
      (trace ~rate:200. ~count:667 ())
  in
  Alcotest.(check int) "idle nudges" 0 (nudges () - before);
  Alcotest.(check string)
    "fingerprint"
    "aeaf220f30972e5b steps=1670 makespan=0x1.b89026456eb6cp+1 \
     stall=0x1.89374bc6a7efap-7 \
     caches=1314/14;108/12;354/14;2226/14;2882/14;2042/14;1458/14;1562/14;\
     602/14;2466/14;698/14;7106/14;2226/14;1346/14;182/12"
    (fingerprint o)

(* Both loops over random traces and configurations: every request ends
   in exactly one terminal status, every completion has [arrival <=
   first_token <= finish], and no replica is woken with nothing to
   admit or shed. *)
let show_loop_case (trace, (config : Fleet.config), crash) =
  Printf.sprintf "%s coalesce=%b steal_age=%g warm=%b autoscale=%b crash=%b [%s]"
    (Batcher.name config.batcher) config.coalesce config.steal_age
    (config.warm <> None) (config.autoscale <> None) crash
    (String.concat "; "
       (List.map
          (fun (tg : Tenant.tagged) ->
            let r = tg.req in
            Printf.sprintf "%d:#%d@%g p%d o%d e2e%g" tg.tenant.Tenant.tenant_id
              r.Request.id r.Request.arrival r.Request.prompt_len
              r.Request.output_len r.Request.slo.Request.e2e)
          trace))

let arb_loop_case =
  let open QCheck.Gen in
  let request =
    pair
      (quad (int_bound 2) (oneofl [ 0.; 1e-3; 5e-3; 2e-2 ]) (int_range 1 64)
         (int_range 1 4))
      (oneofl [ 0.02; 2.0 ])
  in
  let trace =
    map
      (fun rs ->
        let clock = ref 0. in
        List.mapi
          (fun id ((t, gap, prompt, output), e2e) ->
            clock := !clock +. gap;
            tag [| gold; silver; be |].(t)
              (req ~e2e ~id ~arrival:!clock ~prompt ~output ()))
          rs)
      (list_size (int_range 1 60) request)
  in
  let batcher =
    oneofl
      [
        Batcher.Greedy { max_batch = 4 };
        Batcher.Timeout { max_batch = 4; window = 0.01 };
        Batcher.Slo_aware { max_batch = 4 };
      ]
  in
  let config =
    map
      (fun (batcher, (coalesce, steal_age), (warm, autoscale)) ->
        {
          fleet_config with
          batcher;
          coalesce;
          steal_age;
          warm = (if warm then full_config.warm else None);
          autoscale = (if autoscale then full_config.autoscale else None);
        })
      (triple batcher (pair bool (oneofl [ 0.; 0.05 ])) (pair bool bool))
  in
  QCheck.make ~print:show_loop_case (triple trace config bool)

let prop_loops_resolve_every_request =
  QCheck.Test.make ~name:"both loops resolve each request once" ~count:300
    arb_loop_case (fun (trace, config, crash) ->
      let before = nudges () in
      let faults = if crash then crash_plan else Plan.none in
      let fleet = Fleet.run ~faults config engine trace in
      let sched =
        Scheduler.run ~faults
          {
            Scheduler.replicas = config.replicas;
            batcher = config.batcher;
            bucketing = config.bucketing;
            cache_capacity = config.cache_capacity;
          }
          engine (Tenant.requests trace)
      in
      let ids = List.map (fun (tg : Tenant.tagged) -> tg.req.Request.id) trace in
      let resolved loop completed others =
        let got =
          List.sort compare
            (List.map (fun (d : Scheduler.completed) -> d.request.Request.id) completed
            @ List.map (fun (r : Request.t) -> r.Request.id) others)
        in
        if got <> List.sort compare ids then
          QCheck.Test.fail_reportf "%s: terminal statuses for %s, trace %s" loop
            (QCheck.Print.(list int) got) (QCheck.Print.(list int) ids);
        List.iter
          (fun (d : Scheduler.completed) ->
            let a = d.request.Request.arrival in
            if not (a <= d.first_token && d.first_token <= d.finish) then
              QCheck.Test.fail_reportf
                "%s: request %d arrives %h, first token %h, finish %h" loop
                d.request.Request.id a d.first_token d.finish)
          completed
      in
      resolved "Fleet.run" fleet.Fleet.completed
        (fleet.Fleet.dropped @ fleet.Fleet.rate_limited);
      resolved "Scheduler.run" sched.Scheduler.completed
        (sched.Scheduler.dropped @ List.map fst sched.Scheduler.rejected
        @ sched.Scheduler.timed_out @ List.map fst sched.Scheduler.failed);
      let n = nudges () - before in
      if n <> 0 then QCheck.Test.fail_reportf "%d idle nudges" n;
      true)

let () =
  Alcotest.run "fleet"
    [
      ( "tenant",
        [
          Alcotest.test_case "trace determinism" `Quick
            test_trace_deterministic;
          Alcotest.test_case "stream independence" `Quick
            test_trace_stream_independence;
          Alcotest.test_case "duplicate ids" `Quick
            test_trace_rejects_duplicate_ids;
          Alcotest.test_case "lookup" `Quick test_lookup;
        ] );
      ( "wfq",
        [
          Alcotest.test_case "weighted order" `Quick test_wfq_weighted_order;
          Alcotest.test_case "starvation bound" `Quick
            test_wfq_starvation_bound;
          Alcotest.test_case "push_front" `Quick test_wfq_push_front;
          Alcotest.test_case "fold order" `Quick test_wfq_fold_order;
          Alcotest.test_case "eligible filter" `Quick
            test_wfq_eligible_filter;
          Alcotest.test_case "group coalescing" `Quick
            test_wfq_group_coalescing;
          Alcotest.test_case "first filter" `Quick
            test_wfq_first_filter_gates_offer;
          Alcotest.test_case "lane heads, deep" `Quick test_wfq_heads_deep;
          QCheck_alcotest.to_alcotest prop_wfq_heads;
        ] );
      ( "learner",
        [
          Alcotest.test_case "decay and ranking" `Quick
            test_learner_decay_and_ranking;
          Alcotest.test_case "deterministic ties" `Quick
            test_learner_ties_to_smaller_signature;
          Alcotest.test_case "mass decays to harmless" `Quick
            test_learner_mass_decays_to_harmless;
          Alcotest.test_case "warm admission survives cold scan" `Quick
            test_warm_admission_survives_cold_scan;
        ] );
      ( "autoscaler",
        [
          Alcotest.test_case "hysteresis" `Quick test_autoscaler_hysteresis;
          Alcotest.test_case "bounds and stalls" `Quick
            test_autoscaler_bounds_and_stalls;
          Alcotest.test_case "fault rules" `Quick test_autoscaler_fault_rules;
          Alcotest.test_case "validate" `Quick test_autoscaler_validate;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "determinism" `Quick test_fleet_deterministic;
          Alcotest.test_case "request conservation" `Quick
            test_fleet_conserves_requests;
          Alcotest.test_case "validate" `Quick test_fleet_validate;
          Alcotest.test_case "coalescing stalls" `Quick
            test_fleet_coalescing_cuts_stalls;
          Alcotest.test_case "warm store" `Quick
            test_fleet_warm_store_offloads_compiles;
          Alcotest.test_case "crash conservation" `Quick
            test_fleet_crash_requeues_and_conserves;
          Alcotest.test_case "autoscaler bounds" `Quick
            test_fleet_autoscaler_stays_in_bounds;
          Alcotest.test_case "scheduler projection" `Quick
            test_fleet_scheduler_projection;
          Alcotest.test_case "empty prompt rejected by both loops" `Quick
            test_zero_prompt_rejected;
          Alcotest.test_case "pinned crash outcome" `Quick test_fleet_pinned;
          Alcotest.test_case "pinned overload outcome" `Quick
            test_fleet_pinned_overload;
          Alcotest.test_case "no re-arm storm" `Quick test_fleet_no_rearm_storm;
          QCheck_alcotest.to_alcotest prop_loops_resolve_every_request;
        ] );
    ]
