(* Unit tests for the serving runtime: bounded LRU shape cache,
   bucketing arithmetic, admission policies, and the multi-replica
   scheduler's determinism and accounting. *)

open Mikpoly_serve

let req ?(ttft = 0.25) ?(e2e = 1.0) ~id ~arrival ?(prompt = 8) ?(output = 4) () =
  {
    Request.id;
    arrival;
    prompt_len = prompt;
    output_len = output;
    slo = { Request.ttft; e2e };
  }

(* --- Shape_cache --- *)

let test_lru_eviction_order () =
  let c = Shape_cache.create ~capacity:3 in
  Shape_cache.add c (1, 1, 1) "a";
  Shape_cache.add c (2, 2, 2) "b";
  Shape_cache.add c (3, 3, 3) "c";
  Alcotest.(check (list (triple int int int)))
    "insertion order is LRU order"
    [ (1, 1, 1); (2, 2, 2); (3, 3, 3) ]
    (Shape_cache.lru_order c);
  (* Touching the oldest entry makes it the youngest. *)
  Alcotest.(check (option string)) "hit" (Some "a") (Shape_cache.find c (1, 1, 1));
  Alcotest.(check (list (triple int int int)))
    "recency updated"
    [ (2, 2, 2); (3, 3, 3); (1, 1, 1) ]
    (Shape_cache.lru_order c);
  (* A fourth insert evicts the now-least-recently-used (2,2,2). *)
  Shape_cache.add c (4, 4, 4) "d";
  Alcotest.(check (list (triple int int int)))
    "LRU victim evicted"
    [ (3, 3, 3); (1, 1, 1); (4, 4, 4) ]
    (Shape_cache.lru_order c);
  Alcotest.(check (option string)) "victim gone" None (Shape_cache.find c (2, 2, 2))

let test_cache_stats_counters () =
  let c = Shape_cache.create ~capacity:2 in
  ignore (Shape_cache.find c (1, 1, 1));
  Shape_cache.add c (1, 1, 1) ();
  ignore (Shape_cache.find c (1, 1, 1));
  Shape_cache.add c (2, 2, 2) ();
  Shape_cache.add c (3, 3, 3) ();
  let s = Shape_cache.stats c in
  Alcotest.(check int) "hits" 1 s.Shape_cache.hits;
  Alcotest.(check int) "misses" 1 s.Shape_cache.misses;
  Alcotest.(check int) "insertions" 3 s.Shape_cache.insertions;
  Alcotest.(check int) "evictions" 1 s.Shape_cache.evictions;
  Alcotest.(check int) "size" 2 s.Shape_cache.size;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Shape_cache.hit_rate s);
  let t = Shape_cache.total [ s; s ] in
  Alcotest.(check int) "total sums hits" 2 t.Shape_cache.hits;
  Alcotest.(check int) "total sums size" 4 t.Shape_cache.size

let test_cache_capacity_zero () =
  let c = Shape_cache.create ~capacity:0 in
  Shape_cache.add c (1, 1, 1) ();
  Alcotest.(check int) "retains nothing" 0 (Shape_cache.size c);
  Alcotest.(check (option unit)) "always misses" None (Shape_cache.find c (1, 1, 1));
  let s = Shape_cache.stats c in
  Alcotest.(check int) "miss counted" 1 s.Shape_cache.misses;
  Alcotest.(check int) "no eviction churn" 0 s.Shape_cache.evictions

let test_cache_find_n () =
  Alcotest.check_raises "n < 1"
    (Invalid_argument "Shape_cache.find_n: n must be positive") (fun () ->
      ignore (Shape_cache.find_n (Shape_cache.create ~capacity:2) (1, 1, 1) 0));
  (* Twin caches: one probed by find_n, the other by n finds. *)
  let fill () =
    let c = Shape_cache.create ~capacity:3 in
    List.iter (fun k -> Shape_cache.add c k ()) [ (1, 1, 1); (2, 2, 2); (3, 3, 3) ];
    c
  in
  let bulk = fill () and single = fill () in
  Alcotest.(check (option unit)) "resident: hit" (Some ())
    (Shape_cache.find_n bulk (1, 1, 1) 5);
  for _ = 1 to 5 do
    ignore (Shape_cache.find single (1, 1, 1))
  done;
  let same what =
    Alcotest.(check bool) (what ^ ": same stats") true
      (Shape_cache.stats bulk = Shape_cache.stats single);
    Alcotest.(check (list (triple int int int))) (what ^ ": same LRU order")
      (Shape_cache.lru_order single) (Shape_cache.lru_order bulk)
  in
  same "resident";
  Alcotest.(check int) "n hits" 5 (Shape_cache.stats bulk).hits;
  (* An evicting add then picks the same victim after either probe. *)
  Shape_cache.add bulk (4, 4, 4) ();
  Shape_cache.add single (4, 4, 4) ();
  same "after an evicting add";
  Alcotest.(check (option unit)) "absent: miss" None
    (Shape_cache.find_n bulk (2, 2, 2) 7);
  ignore (Shape_cache.find single (2, 2, 2));
  same "absent";
  Alcotest.(check int) "one miss, not n" 1 (Shape_cache.stats bulk).misses

(* --- Bucketing --- *)

let test_bucketing_policies () =
  Alcotest.(check int) "exact" 13 (Bucketing.bucket Bucketing.Exact 13);
  Alcotest.(check int) "aligned up" 16 (Bucketing.bucket (Bucketing.Aligned 8) 13);
  Alcotest.(check int) "aligned fixpoint" 16 (Bucketing.bucket (Bucketing.Aligned 8) 16);
  Alcotest.(check int) "pow2" 16 (Bucketing.bucket Bucketing.Pow2 9);
  Alcotest.(check int) "pow2 fixpoint" 8 (Bucketing.bucket Bucketing.Pow2 8);
  Alcotest.(check int) "fixed" 256 (Bucketing.bucket (Bucketing.Fixed 256) 13);
  Alcotest.(check int) "fixed multiple" 512 (Bucketing.bucket (Bucketing.Fixed 256) 300);
  Alcotest.(check (float 1e-9)) "padded ratio" (16. /. 13.)
    (Bucketing.padded_ratio (Bucketing.Aligned 8) 13);
  Alcotest.(check (float 1e-9)) "exact ratio is 1" 1.
    (Bucketing.padded_ratio Bucketing.Exact 13)

let test_bucketing_of_string_roundtrip () =
  List.iter
    (fun p ->
      match Bucketing.of_string (Bucketing.name p) with
      | Ok q -> Alcotest.(check string) "roundtrip" (Bucketing.name p) (Bucketing.name q)
      | Error e -> Alcotest.fail e)
    [ Bucketing.Exact; Bucketing.Aligned 8; Bucketing.Pow2; Bucketing.Fixed 256 ];
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Bucketing.of_string "nonsense"))

(* --- Batcher --- *)

let ids_of = List.map (fun (r : Request.t) -> r.id)

let queue_of policy waiting =
  let q = Batcher.queue policy in
  List.iter (Batcher.push q) waiting;
  q

let test_batcher_validate () =
  Alcotest.check_raises "max_batch 0"
    (Invalid_argument "Batcher: max_batch must be >= 1") (fun () ->
      Batcher.validate (Batcher.Greedy { max_batch = 0 }));
  Alcotest.check_raises "negative window"
    (Invalid_argument "Batcher: timeout window must be >= 0") (fun () ->
      Batcher.validate (Batcher.Timeout { max_batch = 4; window = -1. }));
  (* A NaN window never ages a request: the scheduler would hold it
     forever. *)
  Alcotest.check_raises "window nan"
    (Invalid_argument "Batcher: timeout window must be >= 0") (fun () ->
      ignore (Batcher.queue (Batcher.Timeout { max_batch = 4; window = nan })))

let test_greedy_admission () =
  let q =
    queue_of
      (Batcher.Greedy { max_batch = 2 })
      [ req ~id:2 ~arrival:0.2 (); req ~id:1 ~arrival:0.1 () ]
  in
  let d = Batcher.admit q ~now:1.0 ~in_flight:1 in
  Alcotest.(check (list int)) "oldest first, capped by in-flight" [ 1 ]
    (ids_of d.Batcher.admitted);
  Alcotest.(check (list int)) "greedy never drops" [] (ids_of d.Batcher.dropped);
  Alcotest.(check (list int)) "rest deferred" [ 2 ]
    (ids_of (Option.to_list (Batcher.pop_oldest q)))

let test_timeout_admission () =
  let p = Batcher.Timeout { max_batch = 4; window = 0.1 } in
  let q = queue_of p [ req ~id:1 ~arrival:0.0 (); req ~id:2 ~arrival:0.35 () ] in
  (* Before the window elapses nothing is admitted... *)
  let early = Batcher.admit q ~now:0.05 ~in_flight:0 in
  Alcotest.(check int) "held back" 0 (List.length early.Batcher.admitted);
  (* ...at exactly the instant next_eligible reports, the oldest is. *)
  let t =
    match Batcher.next_eligible q with
    | Some t -> t
    | None -> Alcotest.fail "queue is non-empty"
  in
  let d = Batcher.admit q ~now:t ~in_flight:0 in
  Alcotest.(check (list int)) "aged request admitted at next_eligible" [ 1 ]
    (ids_of d.Batcher.admitted);
  (* A queue that alone fills the batch is released immediately. *)
  let full =
    queue_of p
      (List.init 4 (fun i -> req ~id:i ~arrival:(float_of_int i *. 1e-3) ()))
  in
  let d = Batcher.admit full ~now:0.004 ~in_flight:0 in
  Alcotest.(check int) "full batch skips the window" 4
    (List.length d.Batcher.admitted)

let test_slo_aware_admission () =
  let expired = req ~id:1 ~arrival:0.0 ~e2e:0.5 () in
  let tight = req ~id:2 ~arrival:0.8 ~e2e:0.4 () in
  let loose = req ~id:3 ~arrival:0.7 ~e2e:2.0 () in
  let q = queue_of (Batcher.Slo_aware { max_batch = 2 }) [ loose; tight; expired ] in
  let d = Batcher.admit q ~now:1.0 ~in_flight:0 in
  Alcotest.(check (list int)) "expired request shed" [ 1 ] (ids_of d.Batcher.dropped);
  Alcotest.(check (list int)) "earliest deadline first" [ 2; 3 ]
    (ids_of d.Batcher.admitted)

let test_next_eligible () =
  Alcotest.(check (option (float 1e-9))) "empty queue" None
    (Batcher.next_eligible (Batcher.queue (Batcher.Greedy { max_batch = 4 })));
  let waiting = [ req ~id:1 ~arrival:0.3 (); req ~id:2 ~arrival:0.6 () ] in
  Alcotest.(check (option (float 1e-9))) "greedy: earliest arrival" (Some 0.3)
    (Batcher.next_eligible (queue_of (Batcher.Greedy { max_batch = 4 }) waiting));
  Alcotest.(check (option (float 1e-9))) "timeout: arrival + window" (Some 0.4)
    (Batcher.next_eligible
       (queue_of (Batcher.Timeout { max_batch = 4; window = 0.1 }) waiting))

let test_next_eligible_edges () =
  (* Empty queue: None for every policy — the only case with no event. *)
  List.iter
    (fun p ->
      Alcotest.(check (option (float 1e-9)))
        (Batcher.name p ^ ": empty queue") None
        (Batcher.next_eligible (Batcher.queue p)))
    [
      Batcher.Greedy { max_batch = 4 };
      Batcher.Timeout { max_batch = 4; window = 0.1 };
      Batcher.Slo_aware { max_batch = 4 };
    ];
  (* Timeout window expiring exactly at [now]: the instant next_eligible
     reports must admit — [now >= arrival +. window] is deliberately
     non-strict, else the event loop would livelock at that instant. *)
  let q =
    queue_of
      (Batcher.Timeout { max_batch = 4; window = 0.1 })
      [ req ~id:1 ~arrival:0.3 () ]
  in
  let at = Option.get (Batcher.next_eligible q) in
  Alcotest.(check (float 1e-9)) "reported instant" 0.4 at;
  let d = Batcher.admit q ~now:at ~in_flight:0 in
  Alcotest.(check (list int)) "admits at exactly the reported instant" [ 1 ]
    (ids_of d.Batcher.admitted);
  (* Slo_aware with every waiting request past its deadline: the queue
     still has a pending event (the shed), so next_eligible must report
     the drop instant, not None — and admitting there drops them all. *)
  let q =
    queue_of
      (Batcher.Slo_aware { max_batch = 4 })
      [ req ~id:1 ~arrival:0.1 ~e2e:0.5 (); req ~id:2 ~arrival:0.2 ~e2e:0.5 () ]
  in
  Alcotest.(check (option (float 1e-9)))
    "all-expired queue still reports an instant" (Some 0.1)
    (Batcher.next_eligible q);
  let d = Batcher.admit q ~now:5.0 ~in_flight:0 in
  Alcotest.(check int) "nothing admitted" 0 (List.length d.Batcher.admitted);
  Alcotest.(check int) "nothing deferred" 0 (Batcher.length q);
  Alcotest.(check (list int)) "both shed" [ 1; 2 ] (ids_of d.Batcher.dropped)

(* --- Batcher against the list reference ---

   The reference is a plain list algorithm: every call re-sorts the
   whole waiting list, and its loop keeps the list as it comes back
   ([deferred]), appends arrivals and puts crash requeues in front. A
   random operation sequence drives the reference and a queue in
   lockstep; at every admission [admit_list] also rules on the
   reference's list. *)

module Reference = struct
  type decision = {
    admitted : Request.t list;
    deferred : Request.t list;
    dropped : Request.t list;
  }

  let take n xs =
    let rec go n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> go (n - 1) (x :: acc) rest
    in
    go (max 0 n) [] xs

  let admit policy ~now ~in_flight ~waiting =
    let cap = max 0 (Batcher.max_batch policy - in_flight) in
    let by_arrival = List.stable_sort Request.compare_arrival waiting in
    match policy with
    | Batcher.Greedy _ ->
      let admitted, deferred = take cap by_arrival in
      { admitted; deferred; dropped = [] }
    | Batcher.Timeout { window; max_batch } ->
      if List.length by_arrival + in_flight >= max_batch then
        let admitted, deferred = take cap by_arrival in
        { admitted; deferred; dropped = [] }
      else
        let eligible, young =
          List.partition
            (fun (r : Request.t) -> now >= r.arrival +. window)
            by_arrival
        in
        let admitted, deferred = take cap eligible in
        {
          admitted;
          deferred = List.stable_sort Request.compare_arrival (deferred @ young);
          dropped = [];
        }
    | Batcher.Slo_aware _ ->
      let live, dropped =
        List.partition (fun r -> now < Request.deadline r) by_arrival
      in
      let edf =
        List.stable_sort
          (fun (a : Request.t) (b : Request.t) ->
            match compare (Request.deadline a) (Request.deadline b) with
            | 0 -> compare a.id b.id
            | c -> c)
          live
      in
      let admitted, deferred = take cap edf in
      { admitted; deferred; dropped }

  let next_eligible policy ~waiting =
    match waiting with
    | [] -> None
    | _ -> (
      let min_arrival =
        List.fold_left
          (fun acc (r : Request.t) -> min acc r.arrival)
          infinity waiting
      in
      match policy with
      | Batcher.Greedy _ | Batcher.Slo_aware _ -> Some min_arrival
      | Batcher.Timeout { window; max_batch } ->
        if List.length waiting >= max_batch then Some min_arrival
        else Some (min_arrival +. window))
end

type queue_op =
  | Push  (** the next request of the trace arrives *)
  | Admit of float * int  (** the clock advances by dt; admit with in_flight *)
  | Finish of int  (** the batch's first n requests complete *)
  | Crash  (** the whole batch returns to the queue *)
  | Drop_oldest

let show_queue_op = function
  | Push -> "push"
  | Admit (dt, in_flight) -> Printf.sprintf "admit(+%g, %d)" dt in_flight
  | Finish n -> Printf.sprintf "finish %d" n
  | Crash -> "crash"
  | Drop_oldest -> "drop-oldest"

(* A policy, a trace of (arrival step, e2e) pairs and the operations. *)
let arb_queue_case =
  let open QCheck.Gen in
  let policy =
    int_range 1 8 >>= fun max_batch ->
    oneof
      [
        return (Batcher.Greedy { max_batch });
        map
          (fun window -> Batcher.Timeout { max_batch; window })
          (oneofl [ 0.; 2e-3; 8e-3 ]);
        return (Batcher.Slo_aware { max_batch });
      ]
  in
  let trace =
    list_size (int_range 1 40)
      (pair (oneofl [ 0.; 1e-3; 2.5e-3 ]) (oneofl [ 1e-3; 4e-3; 1e-2; 5e-2 ]))
  in
  let op =
    frequency
      [
        (4, return Push);
        ( 3,
          map2
            (fun dt n -> Admit (dt, n))
            (oneofl [ 0.; 5e-4; 2e-3; 8e-3 ])
            (int_bound 9) );
        (1, map (fun n -> Finish n) (int_bound 4));
        (1, return Crash);
        (1, return Drop_oldest);
      ]
  in
  let print (p, trace, ops) =
    Printf.sprintf "policy=%s trace=%s ops=%s" (Batcher.name p)
      QCheck.Print.(list (pair float float) trace)
      (String.concat " " (List.map show_queue_op ops))
  in
  QCheck.make ~print (triple policy trace (list_size (int_range 1 100) op))

(* Replay a case on the queue and on the reference; raise on the first
   observation where they differ. *)
let replay_queue_case (policy, steps, ops) =
  let trace =
    let clock = ref 0. in
    Array.of_list
      (List.mapi
         (fun id (gap, e2e) ->
           clock := !clock +. gap;
           req ~id ~arrival:!clock ~e2e ())
         steps)
  in
  let q = Batcher.queue policy in
  let waiting = ref [] and batch = ref [] in
  let next = ref 0 and now = ref 0. in
  let fail what expected got =
    QCheck.Test.fail_reportf "%s: reference %s, batcher %s" what expected got
  in
  let show_ids rs = QCheck.Print.(list int) (ids_of rs) in
  let same what show expected got =
    if expected <> got then fail what (show expected) (show got)
  in
  let observe () =
    same "length" string_of_int (List.length !waiting) (Batcher.length q);
    same "next_eligible"
      QCheck.Print.(option float)
      (Reference.next_eligible policy ~waiting:!waiting)
      (Batcher.next_eligible q)
  in
  List.iter
    (fun op ->
      (match op with
      | Push ->
        if !next < Array.length trace then begin
          let r = trace.(!next) in
          incr next;
          now := Float.max !now r.Request.arrival;
          waiting := !waiting @ [ r ];
          Batcher.push q r
        end
      | Admit (dt, in_flight) ->
        now := !now +. dt;
        let expected =
          Reference.admit policy ~now:!now ~in_flight ~waiting:!waiting
        in
        let listed, deferred =
          Batcher.admit_list policy ~now:!now ~in_flight !waiting
        in
        same "admit_list admitted" show_ids expected.admitted
          listed.Batcher.admitted;
        same "admit_list dropped" show_ids expected.dropped
          listed.Batcher.dropped;
        same "admit_list deferred" show_ids expected.deferred deferred;
        let got = Batcher.admit q ~now:!now ~in_flight in
        same "admitted" show_ids expected.admitted got.Batcher.admitted;
        same "dropped" show_ids expected.dropped got.Batcher.dropped;
        waiting := expected.deferred;
        batch := !batch @ expected.admitted
      | Finish n -> batch := snd (Reference.take n !batch)
      | Crash ->
        waiting := !batch @ !waiting;
        List.iter (Batcher.push q) !batch;
        batch := []
      | Drop_oldest -> (
        (* Under [Slo_aware] the list is in deadline order after an
           admit, so its head is not the oldest: compare with the
           smallest (arrival, id) instead. *)
        let oldest =
          match policy with
          | Batcher.Slo_aware _ ->
            List.stable_sort Request.compare_arrival !waiting
          | Batcher.Greedy _ | Batcher.Timeout _ -> !waiting
        in
        match oldest with
        | [] ->
          same "pop_oldest on empty" show_ids []
            (Option.to_list (Batcher.pop_oldest q))
        | r :: _ ->
          same "pop_oldest" show_ids [ r ]
            (Option.to_list (Batcher.pop_oldest q));
          waiting := List.filter (fun x -> x != r) !waiting));
      observe ())
    ops;
  true

let prop_queue_matches_list =
  QCheck.Test.make ~name:"batcher: same decisions as the list reference"
    ~count:500 arb_queue_case replay_queue_case

(* --- Scheduler + Metrics --- *)

let trace = Request.poisson ~seed:42 ~rate:40. ~count:24 ~max_prompt:32 ~max_output:6 ()

let config =
  {
    Scheduler.replicas = 2;
    batcher = Batcher.Greedy { max_batch = 8 };
    bucketing = Bucketing.Aligned 4;
    cache_capacity = 16;
  }

let test_scheduler_deterministic () =
  let engine = Scheduler.synthetic_engine () in
  let m1 = Metrics.of_outcome (Scheduler.run config engine trace) in
  let m2 = Metrics.of_outcome (Scheduler.run config engine trace) in
  Alcotest.(check bool) "identical metrics on identical input" true (m1 = m2);
  Alcotest.(check int) "all requests complete" 24 m1.Metrics.completed

let test_scheduler_conservation () =
  let engine = Scheduler.synthetic_engine () in
  (* A burst far beyond one replica's capacity with tight deadlines
     forces the SLO-aware batcher to shed the back of the queue. *)
  let tight =
    List.init 20 (fun i ->
        req ~id:i ~arrival:(float_of_int i *. 1e-4) ~e2e:10e-3 ~output:4 ())
  in
  let o =
    Scheduler.run
      {
        config with
        replicas = 1;
        batcher = Batcher.Slo_aware { max_batch = 2 };
      }
      engine tight
  in
  Alcotest.(check int) "completed + dropped = requests" (List.length tight)
    (List.length o.Scheduler.completed + List.length o.Scheduler.dropped);
  Alcotest.(check bool) "some requests shed" true (o.Scheduler.dropped <> []);
  List.iter
    (fun (c : Scheduler.completed) ->
      Alcotest.(check bool) "first token after arrival" true
        (c.first_token > c.request.Request.arrival);
      Alcotest.(check bool) "finish after first token" true
        (c.finish >= c.first_token))
    o.Scheduler.completed

let test_scheduler_padding_accounting () =
  let engine = Scheduler.synthetic_engine () in
  let o = Scheduler.run { config with bucketing = Bucketing.Fixed 64 } engine trace in
  Alcotest.(check bool) "padded >= actual" true
    (o.Scheduler.padded_tokens >= o.Scheduler.actual_tokens);
  Alcotest.(check int) "fixed bucket: padded is a multiple of 64" 0
    (o.Scheduler.padded_tokens mod 64);
  let exact = Scheduler.run config engine trace in
  Alcotest.(check bool) "aligned pads less than fixed-64" true
    (exact.Scheduler.padded_tokens <= o.Scheduler.padded_tokens)

let test_cache_beats_no_cache () =
  (* A compile stall comparable to the step time makes caching decisive. *)
  let engine = Scheduler.synthetic_engine ~compile:1e-3 () in
  let cached = Metrics.of_outcome (Scheduler.run config engine trace) in
  let uncached =
    Metrics.of_outcome
      (Scheduler.run { config with cache_capacity = 0 } engine trace)
  in
  Alcotest.(check bool) "cached p95 strictly lower" true
    (cached.Metrics.latency_p95 < uncached.Metrics.latency_p95);
  Alcotest.(check bool) "cached stalls less" true
    (cached.Metrics.compile_stall_seconds < uncached.Metrics.compile_stall_seconds);
  Alcotest.(check (float 1e-9)) "no-cache never hits" 0. uncached.Metrics.cache_hit_rate;
  Alcotest.(check bool) "cached mostly hits" true (cached.Metrics.cache_hit_rate > 0.9)

let test_precompile_bounded_by_trace () =
  (* A decode batch holds at most one token per request, so the
     precompile walk over batch sizes stops at the trace length whatever
     the batch cap. *)
  let trace16 =
    Request.poisson ~seed:42 ~rate:40. ~count:16 ~max_prompt:32 ~max_output:6 ()
  in
  let handed max_batch =
    let shapes = ref 0 in
    let engine =
      {
        (Scheduler.synthetic_engine ()) with
        Scheduler.precompile_batch =
          (fun ~jobs:_ batch ->
            shapes := !shapes + List.length batch;
            0);
      }
    in
    ignore
      (Scheduler.run ~jobs:2
         {
           config with
           batcher = Batcher.Greedy { max_batch };
           bucketing = Bucketing.Exact;
         }
         engine trace16);
    !shapes
  in
  let at_16 = handed 16 in
  Alcotest.(check bool) "some shapes precompiled" true (at_16 > 0);
  Alcotest.(check int) "a 65536 cap precompiles no more than a 16 cap" at_16
    (handed 65536)

let test_empty_trace () =
  let engine = Scheduler.synthetic_engine () in
  let m = Metrics.of_outcome (Scheduler.run config engine []) in
  Alcotest.(check int) "no requests" 0 m.Metrics.requests;
  Alcotest.(check (float 1e-9)) "zero throughput" 0. m.Metrics.throughput_rps

let test_adapt_hook_noop () =
  (* A hook that never reports work is indistinguishable from no hook. *)
  let engine = Scheduler.synthetic_engine () in
  let plain = Metrics.of_outcome (Scheduler.run config engine trace) in
  let hooked =
    Metrics.of_outcome (Scheduler.run ~adapt:(fun () -> 0.) config engine trace)
  in
  Alcotest.(check bool) "identical metrics" true (plain = hooked);
  Alcotest.(check (float 1e-12)) "no adapt stall" 0.
    hooked.Metrics.adapt_stall_seconds

let test_adapt_hook_charges_stall () =
  (* A one-shot adaptation stall is charged on the stepping replica's
     event clock: it is paid exactly once, extends the makespan and is
     visible to later steps (the polling is per step, so only the first
     poll sees the pending work). *)
  let engine = Scheduler.synthetic_engine () in
  (* Larger than the trace's arrival span so the stall cannot be hidden
     inside idle time spent waiting for the next Poisson arrival. *)
  let stall = 10. in
  let pending = ref stall in
  let adapt () =
    let s = !pending in
    pending := 0.;
    s
  in
  let plain = Scheduler.run config engine trace in
  let adapted = Scheduler.run ~adapt config engine trace in
  Alcotest.(check (float 1e-12)) "stall accounted once" stall
    adapted.Scheduler.adapt_stall_seconds;
  Alcotest.(check (float 1e-12)) "drained" 0. !pending;
  Alcotest.(check bool) "makespan extended" true
    (adapted.Scheduler.makespan >= stall
    && adapted.Scheduler.makespan >= plain.Scheduler.makespan);
  Alcotest.(check int) "work conserved" (List.length plain.Scheduler.completed)
    (List.length adapted.Scheduler.completed)

let test_poisson_trace_properties () =
  Alcotest.(check int) "count respected" 24 (List.length trace);
  let sorted = List.stable_sort Request.compare_arrival trace in
  Alcotest.(check bool) "sorted by arrival" true (trace = sorted);
  List.iter
    (fun (r : Request.t) ->
      Alcotest.(check bool) "positive lengths" true
        (r.prompt_len >= 1 && r.output_len >= 1 && r.prompt_len <= 32
        && r.output_len <= 6))
    trace;
  let again = Request.poisson ~seed:42 ~rate:40. ~count:24 ~max_prompt:32 ~max_output:6 () in
  Alcotest.(check bool) "same seed, same trace" true (trace = again);
  let bursty =
    Request.bursty ~seed:7 ~base_rate:5. ~burst_rate:100. ~period:1. ~duty:0.25
      ~count:40 ~max_prompt:16 ~max_output:4 ()
  in
  Alcotest.(check int) "bursty count" 40 (List.length bursty);
  (* An infinite rate would put every arrival at t = 0. *)
  List.iter
    (fun rate ->
      Alcotest.check_raises
        (Printf.sprintf "poisson rate %g rejected" rate)
        (Invalid_argument "Request.poisson: rate must be positive and finite")
        (fun () ->
          ignore
            (Request.poisson ~seed:42 ~rate ~count:4 ~max_prompt:32
               ~max_output:6 ())))
    [ infinity; nan; 0. ];
  Alcotest.check_raises "bursty infinite rate rejected"
    (Invalid_argument "Request.bursty: rates must be positive and finite")
    (fun () ->
      ignore
        (Request.bursty ~seed:7 ~base_rate:5. ~burst_rate:infinity ~period:1.
           ~duty:0.25 ~count:4 ~max_prompt:16 ~max_output:4 ()))

let test_heavy_tail_traces () =
  let gen dist =
    Request.poisson ~length_dist:dist ~seed:11 ~rate:20. ~count:200
      ~max_prompt:4096 ~max_output:64 ()
  in
  let pareto = gen (Request.Pareto { alpha = 1.1 }) in
  let lognormal = gen (Request.Log_normal { sigma = 2.0 }) in
  (* Determinism: same seed and distribution, bit-identical trace. *)
  Alcotest.(check bool) "pareto reproducible" true
    (pareto = gen (Request.Pareto { alpha = 1.1 }));
  Alcotest.(check bool) "lognormal reproducible" true
    (lognormal = gen (Request.Log_normal { sigma = 2.0 }));
  Alcotest.(check bool) "distinct tails diverge" true (pareto <> lognormal);
  (* Lengths stay clamped to [1, max] under any tail. *)
  List.iter
    (fun (r : Request.t) ->
      Alcotest.(check bool) "clamped" true
        (r.prompt_len >= 1 && r.prompt_len <= 4096 && r.output_len >= 1
        && r.output_len <= 64))
    (pareto @ lognormal);
  (* Heavy tail: mass concentrates near 1 yet huge prompts appear — the
     defining shape log-uniform lacks. Both facts are deterministic
     under the fixed seed. *)
  let prompts = List.map (fun (r : Request.t) -> r.prompt_len) pareto in
  let small = List.length (List.filter (fun p -> p <= 8) prompts) in
  Alcotest.(check bool) "pareto mass near x_min" true
    (small > List.length prompts / 2);
  Alcotest.(check bool) "pareto tail reaches large prompts" true
    (List.exists (fun p -> p >= 256) prompts);
  Alcotest.(check string) "dist names" "log-uniform/pareto-1.1/lognormal-2"
    (String.concat "/"
       (List.map Request.dist_name
          [ Request.Log_uniform; Request.Pareto { alpha = 1.1 };
            Request.Log_normal { sigma = 2.0 } ]));
  Alcotest.check_raises "pareto alpha validated"
    (Invalid_argument "Request: Pareto alpha must be positive") (fun () ->
      ignore (gen (Request.Pareto { alpha = 0. })));
  Alcotest.check_raises "lognormal sigma validated"
    (Invalid_argument "Request: Log_normal sigma must be positive") (fun () ->
      ignore (gen (Request.Log_normal { sigma = -1. })))

(* --- Replica --- *)

let test_replica_advance () =
  let s = Replica.slot ~index:3 ~capacity:4 in
  let r = req ~id:7 ~arrival:0. ~prompt:5 ~output:3 () in
  Replica.admit s ~item:Fun.id [ r ];
  let finished = ref [] in
  let decode_steps = ref 0 in
  let step fin =
    let prefilling =
      List.exists (fun (a : _ Replica.active) -> a.prefill > 0) s.act
    in
    if not prefilling then incr decode_steps;
    Replica.advance s ~fin ~on_done:(fun _ c -> finished := c :: !finished)
  in
  step 1.;
  (match s.act with
  | [ a ] ->
    Alcotest.(check int) "prompt consumed in one step" 0 a.prefill;
    Alcotest.(check int) "KV holds the prompt" 5 a.kv;
    Alcotest.(check int) "no token decoded yet" 3 a.remaining;
    Alcotest.(check bool) "no first token yet" true (Float.is_nan a.first_token)
  | _ -> Alcotest.fail "prefill must keep the request in flight");
  step 2.;
  (match s.act with
  | [ a ] ->
    Alcotest.(check (float 0.)) "first token at the first decode step" 2.
      a.first_token;
    Alcotest.(check int) "one token per step" 2 a.remaining
  | _ -> Alcotest.fail "decoding must keep the request in flight");
  step 3.;
  Alcotest.(check int) "not done with a token left" 0 (List.length !finished);
  step 4.;
  Alcotest.(check int) "leaves the batch" 0 (List.length s.act);
  Alcotest.(check int) "served tokens = output_len" r.output_len !decode_steps;
  match !finished with
  | [ c ] ->
    Alcotest.(check int) "the request" 7 c.Replica.request.Request.id;
    Alcotest.(check (float 0.)) "first token" 2. c.Replica.first_token;
    Alcotest.(check (float 0.)) "finish" 4. c.Replica.finish;
    Alcotest.(check int) "replica" 3 c.Replica.replica
  | _ -> Alcotest.fail "exactly one completion"

let test_replica_evict_and_crash () =
  let s = Replica.slot ~index:0 ~capacity:4 in
  let admit ids =
    Replica.admit s
      ~item:(fun (r : Request.t) -> r.id)
      (List.map (fun id -> req ~id ~arrival:0. ()) ids)
  in
  (* Pushing each evicted member to the lane head must leave the batch
     there in its original order, ahead of what was already queued. *)
  admit [ 1; 2; 3 ];
  let lane = ref [ 9 ] in
  let n = Replica.evict s ~requeue:(fun id -> lane := id :: !lane) in
  Alcotest.(check int) "evicted" 3 n;
  Alcotest.(check (list int)) "batch at the lane head" [ 1; 2; 3; 9 ] !lane;
  Alcotest.(check int) "batch emptied" 0 (List.length s.act);
  admit [ 4; 5 ];
  Shape_cache.add s.cache (1, 1, 1) ();
  ignore (Shape_cache.find s.cache (1, 1, 1));
  let c = Replica.counters () in
  let lane = ref [] in
  let retired =
    Replica.crash c s ~now:1. ~restart_delay:0.5 ~requeue:(fun id ->
        lane := id :: !lane)
  in
  Alcotest.(check (list int)) "crash requeues in order" [ 4; 5 ] !lane;
  Alcotest.(check int) "requeues counted" 2 c.requeues;
  Alcotest.(check int) "crash counted" 1 c.crashes;
  Alcotest.(check int) "retired cache's hits kept" 1 retired.Shape_cache.hits;
  Alcotest.(check int) "fresh cache" 0 (Shape_cache.size s.cache);
  Alcotest.(check int) "same capacity" 4 (Shape_cache.capacity s.cache);
  Alcotest.(check (float 0.)) "down until restart" 1.5 s.down_until;
  Alcotest.(check (float 0.)) "clock waits for restart" 1.5 s.clock;
  Alcotest.(check (float 0.)) "makespan covers restart" 1.5 c.makespan

let test_replica_ladder () =
  let s = Replica.slot ~index:0 ~capacity:8 in
  let store = Shape_cache.create ~capacity:8 in
  let store_hits = ref 0 in
  let look ?(now = 1.) shapes =
    Replica.lookup s ~now ~compile:(fun _ -> 0.25) ~store:(Some store)
      ~on_store_hit:(fun () -> incr store_hits)
      shapes
  in
  Shape_cache.add store (1, 1, 1) 1.;
  Alcotest.(check (float 0.)) "store entry ready at now: free" 0.
    (look [ ((1, 1, 1), 1) ]);
  Alcotest.(check int) "store hit reported" 1 !store_hits;
  Alcotest.(check (float 0.)) "replica cache hit: free" 0.
    (look [ ((1, 1, 1), 3) ]);
  Alcotest.(check int) "store not consulted on a cache hit" 1 !store_hits;
  Shape_cache.add store (2, 2, 2) 1.5;
  Alcotest.(check (float 0.)) "entry not ready yet: compile" 0.25
    (look [ ((2, 2, 2), 1) ]);
  Alcotest.(check (option (float 0.))) "republished at now + stall"
    (Some 1.25) (Shape_cache.find store (2, 2, 2));
  Alcotest.(check (float 0.)) "missing entries: compile each" 0.5
    (look [ ((3, 3, 3), 1); ((4, 4, 4), 1) ]);
  Alcotest.(check (option (float 0.))) "first published at its stall"
    (Some 1.25) (Shape_cache.find store (3, 3, 3));
  Alcotest.(check (option (float 0.))) "second behind the first"
    (Some 1.5) (Shape_cache.find store (4, 4, 4));
  Alcotest.(check int) "only the ready entry was a store hit" 1 !store_hits;
  let bare = Replica.slot ~index:1 ~capacity:8 in
  Alcotest.(check (float 0.)) "no store: one compile, then cache hits" 0.25
    (Replica.lookup bare ~now:0. ~compile:(fun _ -> 0.25) ~store:None
       ~on_store_hit:ignore
       [ ((5, 5, 5), 3) ])

(* The lookup ladder as it ran one probe per micro-kernel launch: the
   reference [Replica.lookup] must match bit for bit. *)
let per_launch_lookup (s : _ Replica.slot) ~now ~compile ~store ~on_store_hit
    shapes =
  let stall = ref 0. in
  List.iter
    (fun (shape, launches) ->
      for _ = 1 to launches do
        match Shape_cache.find s.cache shape with
        | Some () -> ()
        | None ->
          let ready =
            match store with
            | Some st -> (
              match Shape_cache.find st shape with
              | Some at -> at <= now
              | None -> false)
            | None -> false
          in
          if ready then on_store_hit ()
          else begin
            stall := !stall +. compile shape;
            Option.iter
              (fun st -> Shape_cache.add st shape (now +. !stall))
              store
          end;
          Shape_cache.add s.cache shape ()
      done)
    shapes;
  !stall

let ladder_shapes = [| (1, 1, 1); (2, 2, 2); (3, 3, 3); (4, 4, 4) |]

(* Distinct, inexact costs, so a stall summed in another order or over
   another number of compiles shows in its bits. *)
let ladder_compile (m, _, _) = 0.1 *. float_of_int m

let show_key (m, n, k) = Printf.sprintf "%d,%d,%d" m n k

let show_stats (s : Shape_cache.stats) =
  Printf.sprintf "hits=%d misses=%d ins=%d ev=%d size=%d cap=%d" s.hits s.misses
    s.insertions s.evictions s.size s.capacity

(* A case: the replica cache's capacity; an optional store (capacity,
   and entries seeded ready 0.5 s before, at or 0.5 s after the first
   step); then the steps, each a clock advance and its (shape, launches)
   entries. *)
type ladder_case =
  int * (int * (int * int) list) option * (float * (int * int) list) list

(* Everything a lookup can touch, run step by step: each step's stall
   bits and the store hits so far, then both caches' stats, LRU order and
   the store's ready times. *)
let ladder_observations lookup ((capacity, store_spec, steps) : ladder_case) =
  let slot = Replica.slot ~index:0 ~capacity in
  let first = 1. in
  let store =
    Option.map
      (fun (cap, seeded) ->
        let st = Shape_cache.create ~capacity:cap in
        List.iter
          (fun (i, off) ->
            let ready = first +. (0.5 *. float_of_int off) in
            Shape_cache.add st ladder_shapes.(i) ready)
          seeded;
        st)
      store_spec
  in
  let hits = ref 0 in
  let now = ref first in
  let per_step =
    List.map
      (fun (dt, entries) ->
        now := !now +. dt;
        let stall =
          lookup slot ~now:!now ~compile:ladder_compile ~store
            ~on_store_hit:(fun () -> incr hits)
            (List.map (fun (i, n) -> (ladder_shapes.(i), n)) entries)
        in
        Printf.sprintf "stall=%h store_hits=%d" stall !hits)
      steps
  in
  let cache_view c =
    show_stats (Shape_cache.stats c)
    :: List.map show_key (Shape_cache.lru_order c)
  in
  let store_view =
    match store with
    | None -> [ "no store" ]
    | Some st ->
      let view = cache_view st in
      (* Read the ready times last: a find touches recency. *)
      view
      @ List.map
          (fun k ->
            match Shape_cache.find st k with
            | Some at -> Printf.sprintf "%s@%h" (show_key k) at
            | None -> "lost")
          (Shape_cache.lru_order st)
  in
  per_step @ cache_view slot.cache @ store_view

let arb_ladder_case =
  let open QCheck in
  let entry = Gen.(pair (int_bound 3) (int_bound 250)) in
  let step =
    Gen.(pair (oneofl [ 0.; 0.25; 1.; 5. ]) (list_size (int_range 1 6) entry))
  in
  let store =
    Gen.(
      opt
        (pair (int_range 0 6)
           (list_size (int_bound 4) (pair (int_bound 3) (int_range (-1) 1)))))
  in
  let print ((capacity, store_spec, steps) : ladder_case) =
    Printf.sprintf "capacity=%d store=%s steps=%s" capacity
      (match store_spec with
      | None -> "none"
      | Some (cap, seeded) ->
        Printf.sprintf "cap %d seeded %s" cap
          (Print.(list (pair int int)) seeded))
      (Print.(list (pair float (list (pair int int)))) steps)
  in
  make ~print
    Gen.(triple (oneofl [ 0; 1; 2; 3; 64 ]) store (list_size (int_range 1 5) step))

let prop_lookup_matches_per_launch =
  QCheck.Test.make ~name:"lookup: per-shape probe = per-launch ladder"
    ~count:300 arb_ladder_case (fun case ->
      let expected = ladder_observations per_launch_lookup case in
      let got = ladder_observations Replica.lookup case in
      if got <> expected then
        QCheck.Test.fail_reportf "expected:\n%s\ngot:\n%s"
          (String.concat "\n" expected) (String.concat "\n" got);
      true)

(* --- Shape_cache against the polymorphic-table reference ---

   Random operation sequences on the cache and on [Ref_shape_cache], the
   implementation it replaced, at capacities 0–5 with plain and weighted
   admission. The keys of a case are one shape, its permutations and
   shapes one component away from it, so equal hashes and near-equal
   keys are common. After every operation both must report the same
   result, stats, LRU order and rejections. *)

type cache_op =
  | Add of Shape_cache.key * int
  | Find of Shape_cache.key
  | Find_n of Shape_cache.key * int
  | Mem of Shape_cache.key

let show_cache_op = function
  | Add (k, v) -> Printf.sprintf "add %s %d" (show_key k) v
  | Find k -> "find " ^ show_key k
  | Find_n (k, n) -> Printf.sprintf "find_n %s %d" (show_key k) n
  | Mem k -> "mem " ^ show_key k

(* Finite weights with ties, so recency breaks them. *)
let cache_weight (m, n, k) = float_of_int ((m lxor (3 * n) lxor (5 * k)) land 3)

let arb_cache_case =
  let open QCheck in
  let component =
    Gen.oneofl [ 0; 1; 2; 3; 8; 5120; 13824; -1; max_int; min_int ]
  in
  let op keys =
    let key = Gen.oneofl keys in
    Gen.(
      frequency
        [
          (3, map2 (fun k v -> Add (k, v)) key (int_bound 9));
          (2, map (fun k -> Find k) key);
          (2, map2 (fun k n -> Find_n (k, n)) key (int_range 1 5));
          (1, map (fun k -> Mem k) key);
        ])
  in
  let case =
    Gen.(
      triple component component component >>= fun (m, n, k) ->
      triple component component component >>= fun (m', n', k') ->
      let keys =
        [
          (m, n, k); (m, k, n); (n, m, k); (n, k, m); (k, m, n); (k, n, m);
          (m', n, k); (m, n', k); (m, n, k');
        ]
      in
      triple (int_range 0 5) bool (list_size (int_range 1 60) (op keys)))
  in
  make
    ~print:(fun (capacity, weighted, ops) ->
      Printf.sprintf "capacity=%d weighted=%b\n%s" capacity weighted
        (String.concat "\n" (List.map show_cache_op ops)))
    case

let prop_shape_cache_matches_reference =
  QCheck.Test.make ~name:"shape cache: same as the polymorphic-table cache"
    ~count:500 arb_cache_case (fun (capacity, weighted, ops) ->
      let c, r =
        if weighted then
          ( Shape_cache.create_weighted ~weight:cache_weight ~capacity,
            Ref_shape_cache.create_weighted ~weight:cache_weight ~capacity )
        else (Shape_cache.create ~capacity, Ref_shape_cache.create ~capacity)
      in
      let show_opt = function Some v -> string_of_int v | None -> "none" in
      let state () =
        let s = Ref_shape_cache.stats r in
        ( show_stats (Shape_cache.stats c)
          :: Printf.sprintf "rejections=%d" (Shape_cache.rejections c)
          :: List.map show_key (Shape_cache.lru_order c),
          show_stats
            {
              Shape_cache.hits = s.hits;
              misses = s.misses;
              insertions = s.insertions;
              evictions = s.evictions;
              size = s.size;
              capacity = s.capacity;
            }
          :: Printf.sprintf "rejections=%d" (Ref_shape_cache.rejections r)
          :: List.map show_key (Ref_shape_cache.lru_order r) )
      in
      List.iteri
        (fun i op ->
          let got, expected =
            match op with
            | Add (k, v) ->
              Shape_cache.add c k v;
              Ref_shape_cache.add r k v;
              ("()", "()")
            | Find k ->
              ( show_opt (Shape_cache.find c k),
                show_opt (Ref_shape_cache.find r k) )
            | Find_n (k, n) ->
              ( show_opt (Shape_cache.find_n c k n),
                show_opt (Ref_shape_cache.find_n r k n) )
            | Mem k ->
              ( string_of_bool (Shape_cache.mem c k),
                string_of_bool (Ref_shape_cache.mem r k) )
          in
          let got_state, expected_state = state () in
          if got :: got_state <> expected :: expected_state then
            QCheck.Test.fail_reportf
              "after operation %d (%s)\nexpected:\n%s\ngot:\n%s" i
              (show_cache_op op)
              (String.concat "\n" (expected :: expected_state))
              (String.concat "\n" (got :: got_state)))
        ops;
      true)

let test_replica_next_event () =
  let pending =
    ref [ (2., 0, "late"); (1., 2, "step"); (1., 1, "first"); (1., 1, "second") ]
  in
  let fired = ref [] in
  Replica.drive
    ~candidates:(fun n ->
      List.iter (fun (t, prio, ev) -> Replica.consider n t prio ev) !pending)
    ~fire:(fun _ ev ->
      fired := ev :: !fired;
      pending := List.filter (fun (_, _, e) -> e <> ev) !pending);
  Alcotest.(check (list string))
    "earliest, then lowest priority, then first considered"
    [ "first"; "second"; "step"; "late" ]
    (List.rev !fired)

(* --- Pinned outcome ---

   The scheduler on a crash + step-fault + straggler plan with retries,
   reduced to a fingerprint: status digest, step count, the exact bits
   of makespan and compile stall, and every cache's hits/misses. The
   literal pins the exact numbers, so any one-bit drift in the shared
   [Replica] step machinery fails here. *)

let fast_retry =
  {
    Scheduler.retry =
      {
        Mikpoly_fault.Retry.max_attempts = 4;
        base_delay = 1e-3;
        max_delay = 20e-3;
        jitter = 0.25;
      };
    attempt_timeout = infinity;
    max_queue = 0;
    shed = `Reject_new;
  }

let fingerprint ~digest ~steps ~makespan ~stall caches =
  Printf.sprintf "%s steps=%d makespan=%h stall=%h caches=%s" digest steps
    makespan stall
    (String.concat ";"
       (List.map
          (fun (s : Shape_cache.stats) -> Printf.sprintf "%d/%d" s.hits s.misses)
          caches))

let pinned_outcome () =
  let faults =
    Mikpoly_fault.Plan.make ~step_fail_rate:0.2 ~straggler_rate:0.1
      ~crashes:[ (0.05, 0); (0.15, 1) ]
      ~restart_delay:0.02 ~seed:5 ()
  in
  Scheduler.run ~faults ~resilience:fast_retry config
    (Scheduler.synthetic_engine ()) trace

let status_digest o =
  Scheduler.statuses o
  |> List.map (fun ((r : Request.t), st) ->
         Printf.sprintf "%d=%s" r.id
           (match st with
           | Scheduler.Completed -> "completed"
           | Scheduler.Rejected why -> "rejected:" ^ why
           | Scheduler.Timed_out -> "timed_out"
           | Scheduler.Failed why -> "failed:" ^ why))
  |> List.sort compare |> String.concat "\n"
  |> Mikpoly_util.Checksum.fnv1a64_hex

let test_scheduler_pinned () =
  let o = pinned_outcome () in
  Alcotest.(check string)
    "fingerprint"
    "63880c8a738694bf steps=96 makespan=0x1.f6d00f19d1ea5p-2 \
     stall=0x1.54c985f06f696p-8 caches=480/16;102/2;38/2;122/6"
    (fingerprint ~digest:(status_digest o)
       ~steps:o.Scheduler.steps ~makespan:o.Scheduler.makespan
       ~stall:o.Scheduler.compile_stall_seconds o.Scheduler.cache)

(* The same fingerprint, plus the summed queue depth, on a deep queue:
   2 000 requests at several times the capacity of two replicas. The
   mean depth is 498 waiting requests per step, and the SLO-aware
   batcher sheds 918 of the 2 000. *)
let test_overload_pinned () =
  let o =
    Scheduler.run
      {
        Scheduler.replicas = 2;
        batcher = Batcher.Slo_aware { max_batch = 32 };
        bucketing = Bucketing.Exact;
        cache_capacity = 16;
      }
      (Scheduler.synthetic_engine ())
      (Request.poisson ~seed:42 ~rate:5000. ~count:2000 ~max_prompt:32
         ~max_output:16 ())
  in
  let depth =
    float_of_int o.Scheduler.queue_depth_sum
    /. float_of_int o.Scheduler.queue_samples
  in
  Alcotest.(check bool)
    (Printf.sprintf "deep queue (mean depth %.0f)" depth)
    true (depth >= 200.);
  Alcotest.(check string)
    "fingerprint"
    "8b5886d8048afd59 steps=209 makespan=0x1.f7e531158f69cp-1 \
     stall=0x1.38ef34d6a160dp-4 caches=646/186;644/196 queue=104113"
    (Printf.sprintf "%s queue=%d"
       (fingerprint ~digest:(status_digest o) ~steps:o.Scheduler.steps
          ~makespan:o.Scheduler.makespan
          ~stall:o.Scheduler.compile_stall_seconds o.Scheduler.cache)
       o.Scheduler.queue_depth_sum)

(* A full queue under [`Drop_oldest] evicts the request that arrived
   first, whatever order the batcher admits in. Request 0 holds the only
   batch slot while 1 and 2 wait; 2 has the earlier deadline, but 1
   arrived first, so 1 makes room for 3. *)
(* Replicas that wake at the same instant step in index order. Three
   equal requests arrive together, one per replica, so the three
   replicas run the same steps at the same times, and every completion
   ties: the completion order is the step order. *)
let test_equal_wakeups_step_in_index_order () =
  let o =
    Scheduler.run
      { config with Scheduler.replicas = 3 }
      (Scheduler.synthetic_engine ())
      (List.init 3 (fun id -> req ~id ~arrival:0.5 ~prompt:8 ~output:4 ()))
  in
  Alcotest.(check (list (pair int int)))
    "(replica, request) in completion order"
    [ (0, 0); (1, 1); (2, 2) ]
    (List.map
       (fun (c : Scheduler.completed) -> (c.replica, c.request.Request.id))
       o.Scheduler.completed);
  Alcotest.(check bool)
    "the completions tie" true
    (List.for_all
       (fun (c : Scheduler.completed) ->
         c.finish = (List.hd o.Scheduler.completed).finish)
       o.Scheduler.completed)

let test_drop_oldest_under_slo () =
  let o =
    Scheduler.run
      ~resilience:
        { Scheduler.default_resilience with max_queue = 2; shed = `Drop_oldest }
      {
        Scheduler.replicas = 1;
        batcher = Batcher.Slo_aware { max_batch = 1 };
        bucketing = Bucketing.Exact;
        cache_capacity = 16;
      }
      (Scheduler.synthetic_engine ())
      [
        req ~id:0 ~arrival:0. ~e2e:100. ~output:8 ();
        req ~id:1 ~arrival:1e-4 ~e2e:10. ();
        req ~id:2 ~arrival:2e-4 ~e2e:1. ();
        req ~id:3 ~arrival:5e-3 ~e2e:10. ();
      ]
  in
  Alcotest.(check (list (pair int string)))
    "the oldest waiting request is evicted"
    [ (1, "queue full (dropped oldest)") ]
    (List.map (fun ((r : Request.t), why) -> (r.id, why)) o.Scheduler.rejected)

(* --- Pinned report ---

   [Metrics.of_outcome] reduced to every count and the exact bits of
   every float, on three outcomes: the pinned chaos run, a single
   completion, and a run whose every attempt times out (no completions,
   so each distribution is empty). *)

let metrics_fingerprint (m : Metrics.t) =
  Printf.sprintf
    "req=%d done=%d drop=%d rej=%d tout=%d fail=%d retry=%d steps=%d \
     lat=%h/%h/%h ttft=%h/%h tpot=%h thru=%h good=%h slo=%h tok=%h queue=%h \
     hit=%h stall=%h adapt=%h pad=%h makespan=%h"
    m.requests m.completed m.dropped m.rejected m.timed_out m.failed m.retries
    m.steps m.latency_p50 m.latency_p95 m.latency_p99 m.ttft_p50 m.ttft_p95
    m.tpot_mean m.throughput_rps m.goodput_rps m.slo_attainment
    m.tokens_per_second m.mean_queue_depth m.cache_hit_rate
    m.compile_stall_seconds m.adapt_stall_seconds m.padding_overhead m.makespan

(* A per-run table reports facts of its own outcome only: a search made
   by an unrelated compile between two renders must not change it. *)
let test_cache_table_per_outcome () =
  let o = Scheduler.run config (Scheduler.synthetic_engine ()) trace in
  let render () =
    Mikpoly_util.Table.render (Metrics.cache_table ~replicas:2 o)
  in
  let before = render () in
  let c = Mikpoly_core.Compiler.create Mikpoly_accel.Hardware.a100 in
  ignore
    (Mikpoly_core.Compiler.compile c
       (Mikpoly_ir.Operator.gemm ~m:777 ~n:333 ~k:129 ()));
  Alcotest.(check string) "unchanged by an unrelated compile" before (render ())

let test_metrics_pinned () =
  let engine = Scheduler.synthetic_engine () in
  let single =
    Scheduler.run config engine [ req ~id:0 ~arrival:0.01 ~prompt:8 ~output:4 () ]
  in
  let none_done =
    Scheduler.run
      ~resilience:
        {
          fast_retry with
          retry = { fast_retry.retry with Mikpoly_fault.Retry.max_attempts = 1 };
          attempt_timeout = 1e-9;
        }
      config engine trace
  in
  Alcotest.(check (list string))
    "fingerprints"
    [
      "req=24 done=24 drop=0 rej=0 tout=0 fail=0 retry=18 steps=96 \
       lat=0x1.965719ed3c038p-7/0x1.b3c02722c0255p-6/0x1.31ee0fd94e2a3p-5 \
       ttft=0x1.c331109890368p-8/0x1.fe984fa80c8f4p-7 \
       tpot=0x1.c68f51dcf99fbp-9 thru=0x1.87042fb2c5d28p+5 \
       good=0x1.87042fb2c5d28p+5 slo=0x1p+0 tok=0x1.08c02af6609bep+7 \
       queue=0x1.5555555555555p-5 hit=0x1.eeaaaaaaaaaabp-1 \
       stall=0x1.54c985f06f696p-8 adapt=0x0p+0 pad=0x1.6a7d881c3599p-1 \
       makespan=0x1.f6d00f19d1ea5p-2";
      "req=1 done=1 drop=0 rej=0 tout=0 fail=0 retry=0 steps=5 \
       lat=0x1.b08cd03287e79p-7/0x1.b08cd03287e79p-7/0x1.b08cd03287e79p-7 \
       ttft=0x1.8938a35f9612ap-8/0x1.8938a35f9612ap-8 \
       tpot=0x1.3a95fe03a67dbp-9 thru=0x1.58d26a8bbfdbp+5 \
       good=0x1.58d26a8bbfdbp+5 slo=0x1p+0 tok=0x1.58d26a8bbfdbp+7 \
       queue=0x0p+0 hit=0x1.ccccccccccccdp-1 stall=0x1.a36e2eb1c432dp-11 \
       adapt=0x0p+0 pad=0x1p+0 makespan=0x1.7c1d7256b497ap-6";
      "req=24 done=0 drop=0 rej=0 tout=24 fail=0 retry=0 steps=23 \
       lat=0x0p+0/0x0p+0/0x0p+0 ttft=0x0p+0/0x0p+0 tpot=0x0p+0 thru=0x0p+0 \
       good=0x0p+0 slo=0x0p+0 tok=0x0p+0 queue=0x1.642c8590b2164p-2 \
       hit=0x1.b7a6f4de9bd38p-1 stall=0x1.54c985f06f696p-8 adapt=0x0p+0 \
       pad=0x1.78d4fdf3b6458p-3 makespan=0x1.f70e89924e78cp-2";
    ]
    (List.map
       (fun o -> metrics_fingerprint (Metrics.of_outcome o))
       [ pinned_outcome (); single; none_done ])

(* The serve-steady regime at test size: 8 replicas under capacity with
   Aligned 8 bucketing, 2 000 synthetic-engine requests, under Greedy,
   under Timeout, and under Timeout with three crashes and a bounded
   [`Drop_oldest] queue (5 requests evicted). Each run is reduced to the
   outcome fingerprint and the report fingerprint, so the event pick,
   the per-step bookkeeping and the report are pinned bit for bit. *)
let test_steady_pinned () =
  let trace =
    Request.poisson ~seed:11 ~rate:400. ~count:2000 ~max_prompt:256
      ~max_output:32 ()
  in
  let run ?faults ?resilience batcher =
    Scheduler.run ?faults ?resilience
      {
        Scheduler.replicas = 8;
        batcher;
        bucketing = Bucketing.Aligned 8;
        cache_capacity = 8;
      }
      (Scheduler.synthetic_engine ())
      trace
  in
  let timeout = Batcher.Timeout { max_batch = 32; window = 0.01 } in
  let crashed =
    run
      ~faults:
        (Mikpoly_fault.Plan.make
           ~crashes:[ (1.0, 0); (2.0, 3); (2.5, 7) ]
           ~restart_delay:0.05 ~seed:3 ())
      ~resilience:
        { Scheduler.default_resilience with max_queue = 3; shed = `Drop_oldest }
      timeout
  in
  Alcotest.(check (list string))
    "fingerprints"
    [
      "c723d2a23d5782b5 steps=10583 makespan=0x1.3ec024cb76331p+2 \
       stall=0x1.8ef34d6a16264p-2 \
       caches=10224/288;9756/292;9920/264;10752/232;10410/246;10356/236;\
       10878/194;10420/196";
      "req=2000 done=2000 drop=0 rej=0 tout=0 fail=0 retry=0 steps=10583 \
       lat=0x1.d2a65c6aa3a8p-6/0x1.9961eea4e3b09p-4/0x1.005b005b0d2cfp-3 \
       ttft=0x1.3fb1d2ad7928p-7/0x1.f20b57e7e4c78p-6 \
       tpot=0x1.ab4af2445a514p-9 thru=0x1.91916336bbd04p+8 \
       good=0x1.91916336bbd04p+8 slo=0x1p+0 tok=0x1.a3093f7731cebp+11 \
       queue=0x1.7ae876a060c25p-1 hit=0x1.f438378a25c8dp-1 \
       stall=0x1.8ef34d6a16264p-2 adapt=0x0p+0 pad=0x1.22d85e4cb96bcp-1 \
       makespan=0x1.3ec024cb76331p+2";
      "c723d2a23d5782b5 steps=10126 makespan=0x1.3f4b7974893fep+2 \
       stall=0x1.8c7e28240b7fep-2 \
       caches=10098/262;9778/278;9842/246;9934/250;10068/228;9684/236;\
       9874/230;9794/206";
      "req=2000 done=2000 drop=0 rej=0 tout=0 fail=0 retry=0 steps=10126 \
       lat=0x1.42725006ca5ap-5/0x1.c0b93bcc83958p-4/0x1.1262a1178086bp-3 \
       ttft=0x1.456a32839107p-6/0x1.63c2b95b18ae6p-5 \
       tpot=0x1.b1ce3409ed38cp-9 thru=0x1.90e227c3c8fb9p+8 \
       good=0x1.90e227c3c8fb9p+8 slo=0x1p+0 tok=0x1.a25264a16bf73p+11 \
       queue=0x1.33b1ba86ccfb6p+2 hit=0x1.f3c386d9ed16ep-1 \
       stall=0x1.8c7e28240b7fep-2 adapt=0x0p+0 pad=0x1.12987fb39134ep-1 \
       makespan=0x1.3f4b7974893fep+2";
      "90af93944f731a52 steps=10093 makespan=0x1.3f8c75956ac21p+2 \
       stall=0x1.9374bc6a7f01fp-2 \
       caches=7778/230;10082/262;9426/270;5706/150;10002/254;10478/210;\
       9250/254;5030/98;2244/44;3782/98;4996/100";
      "req=2000 done=1995 drop=0 rej=5 tout=0 fail=0 retry=3 steps=10093 \
       lat=0x1.4124adb458b8p-5/0x1.c1d6dfbb0710bp-4/0x1.16cdeed8ab885p-3 \
       ttft=0x1.463b9a1c1364p-6/0x1.6f7a2457c7ac5p-5 \
       tpot=0x1.ac5a375795096p-9 thru=0x1.8f9044ad94892p+8 \
       good=0x1.8f9044ad94892p+8 slo=0x1.feb851eb851ecp-1 \
       tok=0x1.a0698d4093b17p+11 queue=0x1.3817bda5c125dp+2 \
       hit=0x1.f38217b0a93abp-1 stall=0x1.9374bc6a7f01fp-2 adapt=0x0p+0 \
       pad=0x1.11693ea6bd53p-1 makespan=0x1.3f8c75956ac21p+2";
    ]
    (List.concat_map
       (fun o ->
         [
           fingerprint ~digest:(status_digest o) ~steps:o.Scheduler.steps
             ~makespan:o.Scheduler.makespan
             ~stall:o.Scheduler.compile_stall_seconds o.Scheduler.cache;
           metrics_fingerprint (Metrics.of_outcome o);
         ])
       [ run (Batcher.Greedy { max_batch = 32 }); run timeout; crashed ])

(* --- Scheduler.run over random chaos ---

   Random traces (at most 48 requests, optionally snapped to a 5 ms grid
   so arrivals, crashes and steps tie) on 1–3 replicas under every
   batcher and bucketing, cache capacity 0–8, step-fault, straggler and
   crash plans, with resilience off or on (retry, attempt timeout,
   bounded queue under both shed modes) and an optional adapt stall.
   Every trace request must end in exactly one terminal status,
   completions must be distinct with a monotone clock, the report must
   count the whole trace, and a rerun must give the identical outcome. *)

type run_case = {
  seed : int;
  count : int;
  rate : float;
  grid : bool;
  rconfig : Scheduler.config;
  step_fail : float;
  straggle : float;
  crashes : (float * int) list;
  restart : float;
  resilience : Scheduler.resilience option;
  adapt_every : int;  (** 0 = no adapt hook *)
}

let snap grid t = if grid then Float.round (t /. 5e-3) *. 5e-3 else t

let arb_run_case =
  let open QCheck.Gen in
  let batcher =
    int_range 1 8 >>= fun max_batch ->
    oneof
      [
        return (Batcher.Greedy { max_batch });
        map
          (fun window -> Batcher.Timeout { max_batch; window })
          (oneofl [ 0.; 2e-3; 8e-3 ]);
        return (Batcher.Slo_aware { max_batch });
      ]
  in
  let resilience =
    opt
      (map
         (fun (attempts, timeout, max_queue, shed) ->
           {
             Scheduler.retry =
               {
                 Mikpoly_fault.Retry.max_attempts = attempts;
                 base_delay = 1e-3;
                 max_delay = 20e-3;
                 jitter = 0.25;
               };
             attempt_timeout = timeout;
             max_queue;
             shed;
           })
         (quad (int_range 1 4)
            (oneofl [ infinity; 4e-3; 20e-3 ])
            (int_bound 6)
            (oneofl [ `Reject_new; `Drop_oldest ])))
  in
  let gen =
    int_range 1 3 >>= fun replicas ->
    map
      (fun ( (seed, count, rate, grid),
             (batcher, bucketing, cache_capacity),
             (step_fail, straggle, crashes, restart),
             (resilience, adapt_every) ) ->
        {
          seed;
          count;
          rate;
          grid;
          rconfig = { Scheduler.replicas; batcher; bucketing; cache_capacity };
          step_fail;
          straggle;
          crashes;
          restart;
          resilience;
          adapt_every;
        })
      (quad
         (quad (int_bound 100_000) (int_bound 48) (float_range 20. 400.) bool)
         (triple batcher
            (oneofl
               [ Bucketing.Exact; Bucketing.Aligned 8; Bucketing.Pow2;
                 Bucketing.Fixed 16 ])
            (int_bound 8))
         (quad (float_bound_inclusive 0.3) (float_bound_inclusive 0.3)
            (list_size (int_bound 3)
               (pair (float_bound_inclusive 0.2) (int_bound (replicas - 1))))
            (float_bound_inclusive 0.05))
         (pair resilience (oneofl [ 0; 3; 7 ])))
  in
  let print c =
    Printf.sprintf
      "seed=%d count=%d rate=%g grid=%b replicas=%d batcher=%s bucketing=%s \
       cache=%d step_fail=%g straggle=%g crashes=%s restart=%g resilience=%s \
       adapt_every=%d"
      c.seed c.count c.rate c.grid c.rconfig.replicas
      (Batcher.name c.rconfig.batcher)
      (Bucketing.name c.rconfig.bucketing)
      c.rconfig.cache_capacity c.step_fail c.straggle
      (QCheck.Print.(list (pair float int)) c.crashes)
      c.restart
      (match c.resilience with
      | None -> "off"
      | Some r ->
        Printf.sprintf "attempts %d timeout %g max_queue %d %s"
          r.retry.Mikpoly_fault.Retry.max_attempts r.attempt_timeout
          r.max_queue
          (match r.shed with
          | `Reject_new -> "reject-new"
          | `Drop_oldest -> "drop-oldest"))
      c.adapt_every
  in
  QCheck.make ~print gen

let run_case c =
  let trace =
    List.map
      (fun (r : Request.t) -> { r with arrival = snap c.grid r.arrival })
      (Request.poisson ~ttft_budget:0.02 ~seed:c.seed ~rate:c.rate
         ~count:c.count ~max_prompt:32 ~max_output:6 ())
  in
  let faults =
    Mikpoly_fault.Plan.make ~step_fail_rate:c.step_fail
      ~straggler_rate:c.straggle ~straggler_slowdown:3.
      ~crashes:(List.map (fun (t, i) -> (snap c.grid t, i)) c.crashes)
      ~restart_delay:c.restart ~seed:c.seed ()
  in
  let run () =
    (* A fresh, deterministic hook per run: every [adapt_every]-th step
       pays a 1 ms adapt stall. *)
    let adapt =
      if c.adapt_every = 0 then None
      else
        let calls = ref 0 in
        Some
          (fun () ->
            incr calls;
            if !calls mod c.adapt_every = 0 then 1e-3 else 0.)
    in
    Scheduler.run ?adapt ~faults ?resilience:c.resilience c.rconfig
      (Scheduler.synthetic_engine ()) trace
  in
  (trace, run)

let prop_run_conserves =
  QCheck.Test.make ~name:"run: one terminal status per request under chaos"
    ~count:200 arb_run_case (fun c ->
      let trace, run = run_case c in
      let o = run () in
      let ids l = List.sort compare (List.map (fun (r : Request.t) -> r.id) l) in
      let done_ids =
        List.map (fun (d : Scheduler.completed) -> d.request.Request.id) o.completed
      in
      let check what ok = if not ok then QCheck.Test.fail_report what in
      check "one status per request"
        (ids (List.map fst (Scheduler.statuses o)) = ids trace);
      check "distinct completions"
        (List.length (List.sort_uniq compare done_ids) = List.length done_ids);
      check "arrival <= first_token <= finish"
        (List.for_all
           (fun (d : Scheduler.completed) ->
             d.request.Request.arrival <= d.first_token
             && d.first_token <= d.finish)
           o.completed);
      check "report counts the trace"
        ((Metrics.of_outcome o).Metrics.requests = List.length trace);
      check "identical on rerun" (o = run ());
      true)

let () =
  Alcotest.run "serve"
    [
      ( "shape_cache",
        [
          Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "stats counters" `Quick test_cache_stats_counters;
          Alcotest.test_case "capacity zero" `Quick test_cache_capacity_zero;
          Alcotest.test_case "find_n" `Quick test_cache_find_n;
          QCheck_alcotest.to_alcotest prop_shape_cache_matches_reference;
        ] );
      ( "bucketing",
        [
          Alcotest.test_case "policies" `Quick test_bucketing_policies;
          Alcotest.test_case "of_string roundtrip" `Quick
            test_bucketing_of_string_roundtrip;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "validate" `Quick test_batcher_validate;
          Alcotest.test_case "greedy" `Quick test_greedy_admission;
          Alcotest.test_case "timeout" `Quick test_timeout_admission;
          Alcotest.test_case "slo-aware" `Quick test_slo_aware_admission;
          Alcotest.test_case "next_eligible" `Quick test_next_eligible;
          Alcotest.test_case "next_eligible edge cases" `Quick
            test_next_eligible_edges;
          QCheck_alcotest.to_alcotest prop_queue_matches_list;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "deterministic" `Quick test_scheduler_deterministic;
          Alcotest.test_case "conservation" `Quick test_scheduler_conservation;
          Alcotest.test_case "padding accounting" `Quick
            test_scheduler_padding_accounting;
          Alcotest.test_case "cache beats no-cache" `Quick test_cache_beats_no_cache;
          Alcotest.test_case "empty trace" `Quick test_empty_trace;
          Alcotest.test_case "adapt hook no-op" `Quick test_adapt_hook_noop;
          Alcotest.test_case "adapt hook charges stall" `Quick
            test_adapt_hook_charges_stall;
          Alcotest.test_case "poisson trace" `Quick test_poisson_trace_properties;
          Alcotest.test_case "heavy-tail traces" `Quick test_heavy_tail_traces;
          Alcotest.test_case "pinned chaos outcome" `Quick test_scheduler_pinned;
          Alcotest.test_case "pinned overload outcome" `Quick
            test_overload_pinned;
          Alcotest.test_case "drop oldest under SLO-aware" `Quick
            test_drop_oldest_under_slo;
          Alcotest.test_case "pinned report" `Quick test_metrics_pinned;
          Alcotest.test_case "pinned steady outcome" `Quick test_steady_pinned;
          Alcotest.test_case "equal wake-ups step in index order" `Quick
            test_equal_wakeups_step_in_index_order;
          Alcotest.test_case "cache table per outcome" `Quick
            test_cache_table_per_outcome;
          QCheck_alcotest.to_alcotest prop_run_conserves;
          Alcotest.test_case "precompile bounded by trace" `Quick
            test_precompile_bounded_by_trace;
        ] );
      ( "replica",
        [
          Alcotest.test_case "token advance" `Quick test_replica_advance;
          Alcotest.test_case "evict and crash order" `Quick
            test_replica_evict_and_crash;
          Alcotest.test_case "lookup ladder" `Quick test_replica_ladder;
          QCheck_alcotest.to_alcotest prop_lookup_matches_per_launch;
          Alcotest.test_case "next event" `Quick test_replica_next_event;
        ] );
    ]
