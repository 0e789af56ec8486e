(* Tests for lib/telemetry: tracer nesting/ordering invariants, the
   metrics registry's bucket semantics, the Chrome trace exporter
   (golden, byte-for-byte), the no-op-sink overhead bound, and an
   end-to-end check that one profiled serving run produces spans from
   all four instrumented layers. *)

open Mikpoly_telemetry

(* Every test owns the global tracer: start clean, leave clean. *)
let with_tracer f =
  Tracer.reset ();
  Tracer.enable ();
  Fun.protect
    ~finally:(fun () ->
      Tracer.disable ();
      Tracer.reset ())
    f

(* --- Tracer --- *)

let test_disabled_is_noop () =
  Tracer.reset ();
  Tracer.disable ();
  let r = Tracer.with_span "outer" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 r;
  Tracer.annotate "k" "v";
  Tracer.emit ~track:"x" ~name:"s" ~start:0. ~finish:1. ();
  Tracer.set_units ~track:"x" ~per_second:1e9;
  Alcotest.(check int) "nothing recorded" 0 (Tracer.span_count ());
  Alcotest.(check (float 0.)) "units not declared" 1.0 (Tracer.units "x")

let test_nesting_and_parents () =
  with_tracer (fun () ->
      Tracer.with_span "outer" (fun () ->
          Tracer.with_span "inner" (fun () -> ());
          Tracer.with_span "inner2" (fun () -> ()));
      let spans = Tracer.spans () in
      Alcotest.(check int) "three spans" 3 (List.length spans);
      let find name = List.find (fun (s : Span.t) -> s.name = name) spans in
      let outer = find "outer" and inner = find "inner" in
      let inner2 = find "inner2" in
      Alcotest.(check int) "outer is a root" Span.no_parent outer.parent;
      Alcotest.(check int) "inner under outer" outer.id inner.parent;
      Alcotest.(check int) "inner2 under outer" outer.id inner2.parent;
      Alcotest.(check string) "wall track" Tracer.wall_track outer.track;
      List.iter
        (fun (s : Span.t) ->
          Alcotest.(check bool) "non-negative duration" true
            (Span.duration s >= 0.))
        spans;
      Alcotest.(check bool) "children inside parent" true
        (inner.start >= outer.start && inner2.finish <= outer.finish);
      Alcotest.(check bool) "siblings ordered" true
        (inner.finish <= inner2.start))

let test_spans_sorted_and_attrs () =
  with_tracer (fun () ->
      Tracer.set_units ~track:"device/x" ~per_second:1e9;
      Tracer.emit ~track:"device/x" ~name:"late" ~start:50. ~finish:60. ();
      Tracer.emit ~track:"device/x" ~name:"early" ~start:10. ~finish:20. ();
      Tracer.with_span "host-side"
        ~attrs:[ ("shape", "4x4x4") ]
        (fun () -> Tracer.annotate "cache" "miss");
      let spans = Tracer.spans () in
      let names = List.map (fun (s : Span.t) -> s.name) spans in
      (* compare_start: track-major ("device/x" < "host"), start-minor *)
      Alcotest.(check (list string)) "deterministic order"
        [ "early"; "late"; "host-side" ] names;
      let host = List.nth spans 2 in
      Alcotest.(check (list (pair string string)))
        "open attrs precede annotations"
        [ ("shape", "4x4x4"); ("cache", "miss") ]
        host.attrs;
      Alcotest.(check (option string)) "attr lookup" (Some "miss")
        (Span.attr host "cache");
      Alcotest.(check int) "int_attr default" 7
        (Span.int_attr ~default:7 host "absent");
      Alcotest.(check (float 0.)) "units recorded" 1e9
        (Tracer.units "device/x"))

let test_span_survives_exception () =
  with_tracer (fun () ->
      (try Tracer.with_span "boom" (fun () -> failwith "no") with
      | Failure _ -> ());
      Tracer.with_span "after" (fun () -> ());
      let spans = Tracer.spans () in
      Alcotest.(check int) "both recorded" 2 (List.length spans);
      List.iter
        (fun (s : Span.t) ->
          Alcotest.(check int)
            (s.name ^ " is a root — stack not corrupted")
            Span.no_parent s.parent)
        spans)

(* --- Metrics --- *)

let test_histogram_bucket_edges () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg ~buckets:[| 1.; 2.; 5. |] "h" in
  List.iter (Metrics.observe h) [ 1.0; 1.5; 5.0; 7.0; 0.0 ];
  match Metrics.find (Metrics.snapshot ~registry:reg ()) "h" with
  | Some (Metrics.Histogram { buckets; counts; sum; count; _ }) ->
    Alcotest.(check (array (float 0.))) "bounds kept" [| 1.; 2.; 5. |] buckets;
    (* le semantics: 0.0 and 1.0 land in le=1, 1.5 in le=2, 5.0 in le=5,
       7.0 in the implicit overflow bucket *)
    Alcotest.(check (array int)) "le counts" [| 2; 1; 1; 1 |] counts;
    Alcotest.(check int) "count" 5 count;
    Alcotest.(check (float 1e-9)) "sum" 14.5 sum
  | _ -> Alcotest.fail "histogram not found"

let test_histogram_rejects_bad_buckets () =
  let reg = Metrics.create () in
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Metrics.histogram: buckets must be strictly increasing")
    (fun () ->
      ignore (Metrics.histogram ~registry:reg ~buckets:[| 2.; 1. |] "bad"))

let test_counter_diff_reset () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~registry:reg "c" in
  Metrics.incr c;
  let before = Metrics.snapshot ~registry:reg () in
  Metrics.add c 10;
  let after = Metrics.snapshot ~registry:reg () in
  (match Metrics.find (Metrics.diff ~before ~after) "c" with
  | Some (Metrics.Counter { value; _ }) ->
    Alcotest.(check int) "diff isolates the region" 10 value
  | _ -> Alcotest.fail "counter not found");
  Alcotest.(check bool) "same name same cell" true
    (Metrics.counter ~registry:reg "c" == c);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: c registered as a different kind")
    (fun () -> ignore (Metrics.gauge ~registry:reg "c"));
  Metrics.reset ~registry:reg ();
  Alcotest.(check int) "reset zeroes, keeps registration" 0
    (Metrics.counter_value c)

(* --- Chrome trace exporter (golden) --- *)

let test_chrome_trace_golden () =
  let spans =
    [
      Span.make ~id:1 ~lane:2
        ~attrs:[ ("tasks", "4") ]
        ~track:"device/x" ~name:"mk" ~start:100. ~finish:300. ();
      Span.make ~id:2 ~parent:1 ~track:"host" ~name:"compile" ~start:0.5
        ~finish:1.0 ();
    ]
  in
  let units = function "device/x" -> 1e6 | _ -> 1.0 in
  let got = Export_chrome.to_string ~units spans in
  let expected =
    String.concat ""
      [
        {|{"traceEvents":[|};
        {|{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"device/x"}},|};
        {|{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"host"}},|};
        {|{"name":"mk","cat":"device/x","ph":"X","pid":1,"tid":2,"ts":100,"dur":200,"args":{"tasks":"4"}},|};
        {|{"name":"compile","cat":"host","ph":"X","pid":2,"tid":0,"ts":500000,"dur":500000,"args":{"parent":1}}|};
        {|],"displayTimeUnit":"ms"}|};
      ]
  in
  Alcotest.(check string) "byte-for-byte" expected got;
  (* and the validator side of the round trip *)
  match Json.parse got with
  | Error e -> Alcotest.fail ("exporter output does not parse: " ^ e)
  | Ok json -> (
    match Json.member "traceEvents" json with
    | Some (Json.List events) ->
      Alcotest.(check int) "2 meta + 2 spans" 4 (List.length events)
    | _ -> Alcotest.fail "traceEvents missing")

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd");
        ("n", Json.Number 1.5);
        ("i", Json.Number 3.);
        ("l", Json.List [ Json.Bool true; Json.Null ]);
      ]
  in
  match Json.parse (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
  | Error e -> Alcotest.fail e

(* --- No-op sink overhead --- *)

(* With tracing disabled the instrumented compile path must stay within
   5% of the genuinely uninstrumented one ([~instrument:false] skips
   even the enabled() checks and metric stores). One compile takes a few
   microseconds, while a shared host drifts between faster and slower
   states over milliseconds, so a best-of-batches comparison still
   depends on which side caught the fast state. Instead the two sides
   alternate in short batches, each pair sharing the host's state, and
   the overhead is the median of the paired ratios, which ignores the
   pairs a preemption hit. *)
let test_noop_overhead_under_5_percent () =
  Tracer.reset ();
  Tracer.disable ();
  let hw = Mikpoly_accel.Hardware.a100 in
  let compiler = Mikpoly_core.Compiler.create hw in
  let op = Mikpoly_ir.Operator.gemm ~m:777 ~n:1234 ~k:555 () in
  let time_batch f =
    let reps = 20 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let uninstrumented () =
    Mikpoly_core.Compiler.compile_fresh ~instrument:false compiler op
  in
  let instrumented () = Mikpoly_core.Compiler.compile_fresh compiler op in
  ignore (time_batch uninstrumented);
  ignore (time_batch instrumented);
  let pairs = 201 in
  let ratios =
    Array.init pairs (fun _ ->
        let base = time_batch uninstrumented in
        time_batch instrumented /. base)
  in
  Array.sort Float.compare ratios;
  let overhead = ratios.(pairs / 2) -. 1. in
  Alcotest.(check bool)
    (Printf.sprintf "no-op sink overhead %.2f%% < 5%%" (100. *. overhead))
    true (overhead < 0.05)

(* --- Parallel recording: spans from worker domains --- *)

let test_parallel_spans_recorded () =
  with_tracer (fun () ->
      let n = 24 in
      ignore
        (Mikpoly_util.Domain_pool.map ~jobs:4 ~min_chunk:1
           (fun i ->
             Tracer.with_span
               ("work." ^ string_of_int i)
               (fun () -> Tracer.annotate "i" (string_of_int i)))
           (Array.init n Fun.id));
      (* every body's span was captured, none corrupted, ids all unique *)
      let spans = Tracer.spans () in
      let work =
        List.filter
          (fun (s : Span.t) ->
            String.length s.name > 5 && String.sub s.name 0 5 = "work.")
          spans
      in
      Alcotest.(check int) "one span per body" n (List.length work);
      let ids = List.sort_uniq compare (List.map (fun (s : Span.t) -> s.id) spans) in
      Alcotest.(check int) "span ids unique" (List.length spans) (List.length ids);
      List.iter
        (fun (s : Span.t) ->
          let i = String.sub s.name 5 (String.length s.name - 5) in
          Alcotest.(check bool)
            ("annotation survived on " ^ s.name)
            true
            (List.mem ("i", i) s.attrs))
        work;
      (* and the merged buffers still export as a loadable trace *)
      match Json.parse (Export_chrome.of_tracer ()) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("trace does not parse: " ^ e))

(* --- Integration: all four layers on one timeline --- *)

let test_profiled_serve_covers_all_layers () =
  with_tracer (fun () ->
      (* v100: a preset no other test in this binary tunes, so the
         offline stage actually runs (the kernel-set cache is
         process-global) and its span lands in this trace *)
      let hw = Mikpoly_accel.Hardware.v100 in
      let compiler = Mikpoly_core.Compiler.create hw in
      let engine = Mikpoly_serve.Scheduler.mikpoly_engine compiler in
      let trace =
        Mikpoly_serve.Request.poisson ~seed:3 ~rate:40. ~count:8 ~max_prompt:32
          ~max_output:4 ()
      in
      let config =
        {
          Mikpoly_serve.Scheduler.replicas = 1;
          batcher = Mikpoly_serve.Batcher.Greedy { max_batch = 8 };
          bucketing = Mikpoly_serve.Bucketing.Aligned 8;
          cache_capacity = 16;
        }
      in
      let outcome = Mikpoly_serve.Scheduler.run config engine trace in
      Alcotest.(check int) "all requests served" 8
        (List.length outcome.Mikpoly_serve.Scheduler.completed);
      let spans = Tracer.spans () in
      let has p = List.exists p spans in
      Alcotest.(check bool) "offline stage span" true
        (has (fun (s : Span.t) -> s.name = "offline.tune"));
      Alcotest.(check bool) "online polymerization span" true
        (has (fun (s : Span.t) -> s.name = "polymerize.search"));
      Alcotest.(check bool) "device simulation span" true
        (has (fun (s : Span.t) ->
             String.length s.track > 7 && String.sub s.track 0 7 = "device/"));
      Alcotest.(check bool) "serve scheduler span" true
        (has (fun (s : Span.t) -> s.track = "serve" && s.name = "request"));
      (* the whole thing exports as a loadable trace *)
      match Json.parse (Export_chrome.of_tracer ()) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("trace does not parse: " ^ e))

let () =
  Alcotest.run "telemetry"
    [
      ( "tracer",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "nesting and parents" `Quick
            test_nesting_and_parents;
          Alcotest.test_case "ordering and attributes" `Quick
            test_spans_sorted_and_attrs;
          Alcotest.test_case "exception safety" `Quick
            test_span_survives_exception;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram bucket edges" `Quick
            test_histogram_bucket_edges;
          Alcotest.test_case "histogram rejects bad buckets" `Quick
            test_histogram_rejects_bad_buckets;
          Alcotest.test_case "counter diff and reset" `Quick
            test_counter_diff_reset;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace golden" `Quick
            test_chrome_trace_golden;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "no-op sink < 5%" `Slow
            test_noop_overhead_under_5_percent;
        ] );
      ( "integration",
        [
          Alcotest.test_case "parallel spans recorded" `Quick
            test_parallel_spans_recorded;
          Alcotest.test_case "profiled serve covers all layers" `Quick
            test_profiled_serve_covers_all_layers;
        ] );
    ]
