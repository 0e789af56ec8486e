(* Tests for the fault-injection plane and the resilience machinery it
   exercises: seeded fault-plan determinism, retry backoff/jitter
   bounds, circuit-breaker state transitions, crash-safe artifact
   writes, checksum rejection in both stores, degradation-ladder rung
   selection per corruption mode, and the chaos scheduler's
   conservation + reproducibility invariants. *)

open Mikpoly_fault
module Atomic_file = Mikpoly_util.Atomic_file

let gpu = Mikpoly_accel.Hardware.a100

let temp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

(* --- Plan --- *)

let test_plan_quiet () =
  Alcotest.(check bool) "none is quiet" true (Plan.is_quiet Plan.none);
  let p = Plan.scenario ~seed:3 ~replicas:2 ~horizon:10. () in
  Alcotest.(check bool) "scenario is not quiet" false (Plan.is_quiet p);
  Alcotest.(check int) "one crash by default" 1 (List.length p.Plan.crashes);
  let t, r = List.hd p.Plan.crashes in
  Alcotest.(check bool) "crash inside the middle of the horizon" true
    (t >= 1. && t <= 9.);
  Alcotest.(check bool) "crash on a valid replica" true (r >= 0 && r < 2)

let test_plan_stateless_determinism () =
  let mk () = Plan.make ~step_fail_rate:0.5 ~straggler_rate:0.5 ~seed:17 () in
  let a = mk () and b = mk () in
  for replica = 0 to 3 do
    for step = 0 to 49 do
      Alcotest.(check bool)
        (Printf.sprintf "fail draw (%d,%d) reproducible" replica step)
        (Plan.step_fails a ~replica ~step)
        (Plan.step_fails b ~replica ~step);
      Alcotest.(check (float 0.)) "slowdown draw reproducible"
        (Plan.step_slowdown a ~replica ~step)
        (Plan.step_slowdown b ~replica ~step)
    done
  done;
  (* Draws are keyed on the site, not on evaluation order. *)
  Alcotest.(check bool) "order-independent"
    (Plan.step_fails a ~replica:1 ~step:7)
    (Plan.step_fails a ~replica:1 ~step:7);
  let c = Plan.make ~step_fail_rate:0.5 ~seed:18 () in
  let differs = ref false in
  for step = 0 to 199 do
    if Plan.step_fails a ~replica:0 ~step <> Plan.step_fails c ~replica:0 ~step
    then differs := true
  done;
  Alcotest.(check bool) "different seeds draw differently" true !differs

let test_plan_rate_extremes () =
  let never = Plan.make ~seed:1 () in
  let heavy =
    Plan.make ~step_fail_rate:0.99 ~straggler_rate:1. ~straggler_slowdown:2.5
      ~seed:1 ()
  in
  let fired = ref false in
  for step = 0 to 199 do
    Alcotest.(check bool) "rate 0 never fails" false
      (Plan.step_fails never ~replica:0 ~step);
    Alcotest.(check (float 0.)) "rate 0 never slows" 1.
      (Plan.step_slowdown never ~replica:0 ~step);
    if Plan.step_fails heavy ~replica:0 ~step then fired := true;
    Alcotest.(check (float 0.)) "straggler rate 1 always slows" 2.5
      (Plan.step_slowdown heavy ~replica:0 ~step)
  done;
  Alcotest.(check bool) "a 99% rate fires" true !fired

let test_plan_validates () =
  Alcotest.check_raises "certain step failure rejected"
    (Invalid_argument "Plan: step_fail_rate must be in [0, 1)")
    (fun () -> ignore (Plan.make ~step_fail_rate:1. ~seed:0 ()))

let test_plan_validates_crashes () =
  Alcotest.check_raises "negative crash replica rejected"
    (Invalid_argument "Plan: crash entries need time >= 0 and replica >= 0")
    (fun () -> ignore (Plan.make ~crashes:[ (0.05, -1) ] ~seed:0 ()))

(* --- Retry --- *)

let test_retry_bounds () =
  let p =
    { Retry.max_attempts = 5; base_delay = 0.05; max_delay = 1.0; jitter = 0.5 }
  in
  Retry.validate p;
  for attempt = 1 to 10 do
    let d =
      Float.min p.Retry.max_delay
        (p.Retry.base_delay *. (2. ** float_of_int (attempt - 1)))
    in
    for seed = 0 to 20 do
      let delay = Retry.delay_after p ~seed ~attempt in
      Alcotest.(check bool)
        (Printf.sprintf "delay in [d, 1.5d] (seed %d attempt %d)" seed attempt)
        true
        (delay >= d -. 1e-12 && delay <= (d *. 1.5) +. 1e-12)
    done
  done

let test_retry_deterministic () =
  let p = Retry.default in
  Alcotest.(check (float 0.)) "same (seed, attempt) same delay"
    (Retry.delay_after p ~seed:42 ~attempt:2)
    (Retry.delay_after p ~seed:42 ~attempt:2);
  let differs = ref false in
  for seed = 0 to 31 do
    if
      Retry.delay_after p ~seed ~attempt:2
      <> Retry.delay_after p ~seed:999 ~attempt:2
    then differs := true
  done;
  Alcotest.(check bool) "jitter varies with the seed" true !differs

let test_retry_no_jitter_is_exact () =
  let p =
    { Retry.max_attempts = 3; base_delay = 0.1; max_delay = 1.0; jitter = 0. }
  in
  Alcotest.(check (float 1e-12)) "attempt 1" 0.1
    (Retry.delay_after p ~seed:5 ~attempt:1);
  Alcotest.(check (float 1e-12)) "attempt 2 doubles" 0.2
    (Retry.delay_after p ~seed:5 ~attempt:2);
  Alcotest.(check (float 1e-12)) "capped at max_delay" 1.0
    (Retry.delay_after p ~seed:5 ~attempt:9)

let test_retry_validates () =
  Alcotest.check_raises "zero attempts rejected"
    (Invalid_argument "Retry: max_attempts must be >= 1") (fun () ->
      Retry.validate { Retry.default with max_attempts = 0 })

(* --- Breaker --- *)

let test_breaker_trip_halfopen_recover () =
  let b =
    Breaker.create ~policy:{ Breaker.failure_threshold = 3; cooldown = 10. } ()
  in
  Alcotest.(check bool) "closed allows" true (Breaker.allow b ~now:0.);
  Breaker.record_failure b ~now:0.;
  Breaker.record_failure b ~now:1.;
  Alcotest.(check bool) "still closed below threshold" true
    (Breaker.state b = Breaker.Closed);
  Breaker.record_failure b ~now:2.;
  Alcotest.(check bool) "opens at threshold" true
    (Breaker.state b = Breaker.Open);
  Alcotest.(check bool) "open rejects before cooldown" false
    (Breaker.allow b ~now:5.);
  Alcotest.(check bool) "probes after cooldown" true (Breaker.allow b ~now:12.5);
  Alcotest.(check bool) "half-open after the probe" true
    (Breaker.state b = Breaker.Half_open);
  Breaker.record_success b;
  Alcotest.(check bool) "probe success closes" true
    (Breaker.state b = Breaker.Closed);
  let s = Breaker.stats b in
  Alcotest.(check int) "one trip" 1 s.Breaker.trips;
  Alcotest.(check int) "one probe" 1 s.Breaker.probes

let test_breaker_halfopen_failure_reopens () =
  let b =
    Breaker.create ~policy:{ Breaker.failure_threshold = 2; cooldown = 5. } ()
  in
  Breaker.record_failure b ~now:0.;
  Breaker.record_failure b ~now:0.;
  Alcotest.(check bool) "open" true (Breaker.state b = Breaker.Open);
  Alcotest.(check bool) "probe allowed" true (Breaker.allow b ~now:6.);
  Breaker.record_failure b ~now:6.;
  Alcotest.(check bool) "probe failure reopens" true
    (Breaker.state b = Breaker.Open);
  Alcotest.(check bool) "rejects during the new cooldown" false
    (Breaker.allow b ~now:10.);
  Alcotest.(check int) "two trips" 2 (Breaker.stats b).Breaker.trips

let test_breaker_success_resets_streak () =
  let b =
    Breaker.create ~policy:{ Breaker.failure_threshold = 3; cooldown = 5. } ()
  in
  Breaker.record_failure b ~now:0.;
  Breaker.record_failure b ~now:1.;
  Breaker.record_success b;
  Breaker.record_failure b ~now:2.;
  Breaker.record_failure b ~now:3.;
  Alcotest.(check bool) "success interrupted the streak" true
    (Breaker.state b = Breaker.Closed)

let test_breaker_rejects_nan_cooldown () =
  (* [now >= nan] is false: a NaN cooldown would keep a tripped breaker
     open for ever. *)
  Alcotest.check_raises "nan cooldown"
    (Invalid_argument "Breaker: cooldown must be >= 0") (fun () ->
      ignore
        (Breaker.create ~policy:{ Breaker.failure_threshold = 1; cooldown = nan } ()))

(* --- Device --- *)

let test_device_draws () =
  let d =
    Device.make ~launch_fail_rate:0.5 ~max_launch_retries:3 ~straggler_rate:0.5
      ~straggler_slowdown:2. ~seed:9 ()
  in
  let d' =
    Device.make ~launch_fail_rate:0.5 ~max_launch_retries:3 ~straggler_rate:0.5
      ~straggler_slowdown:2. ~seed:9 ()
  in
  let saw_retry = ref false in
  for region = 0 to 63 do
    let r = Device.launch_retries d ~region ~tasks:8 in
    if r > 0 then saw_retry := true;
    Alcotest.(check bool) "retries bounded" true (r >= 0 && r <= 3);
    Alcotest.(check int) "retries reproducible" r
      (Device.launch_retries d' ~region ~tasks:8);
    let f = Device.straggler_factor d ~region ~tasks:8 in
    Alcotest.(check bool) "factor is 1 or the slowdown" true
      (f = 1. || f = 2.)
  done;
  Alcotest.(check bool) "a 50% rate fires somewhere in 64 regions" true
    !saw_retry;
  let quiet = Device.make ~seed:9 () in
  Alcotest.(check int) "rate 0 never retries" 0
    (Device.launch_retries quiet ~region:0 ~tasks:8)

(* --- Corrupt --- *)

let sample_artifact =
  "magic line v1\nhw line\nfingerprint abc\nchecksum 123\nbody one\nbody two\n"

let test_corrupt_modes () =
  List.iter
    (fun mode ->
      let c = Corrupt.apply mode ~seed:4 sample_artifact in
      Alcotest.(check bool)
        (Corrupt.mode_name mode ^ " changes the artifact")
        true (c <> sample_artifact);
      Alcotest.(check string)
        (Corrupt.mode_name mode ^ " is deterministic")
        c
        (Corrupt.apply mode ~seed:4 sample_artifact))
    Corrupt.all_modes;
  Alcotest.(check bool) "truncate shortens" true
    (String.length (Corrupt.apply Corrupt.Truncate ~seed:4 sample_artifact)
    < String.length sample_artifact);
  Alcotest.(check int) "bit flip preserves length"
    (String.length sample_artifact)
    (String.length (Corrupt.apply Corrupt.Bit_flip ~seed:4 sample_artifact))

(* --- Atomic_file --- *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_atomic_write_roundtrip () =
  let path = temp_path "mikpoly_test_atomic.txt" in
  Atomic_file.write ~path (fun oc -> output_string oc "hello\nworld\n");
  Alcotest.(check string) "contents" "hello\nworld\n" (read_file path);
  Alcotest.(check bool) "no stale tempfile" false
    (Sys.file_exists (Atomic_file.temp_path path));
  Sys.remove path

exception Killed

let test_atomic_midwrite_kill () =
  let path = temp_path "mikpoly_test_atomic_kill.txt" in
  Atomic_file.write ~path (fun oc -> output_string oc "original\n");
  (* A writer that dies halfway through: the target must keep its
     previous contents and the tempfile must not survive. *)
  (try
     Atomic_file.write ~path (fun oc ->
         output_string oc "partial";
         raise Killed)
   with Killed -> ());
  Alcotest.(check string) "previous contents survive" "original\n"
    (read_file path);
  Alcotest.(check bool) "tempfile cleaned up" false
    (Sys.file_exists (Atomic_file.temp_path path));
  (* A stale tempfile from a killed process must not poison later saves. *)
  let oc = open_out (Atomic_file.temp_path path) in
  output_string oc "stale garbage";
  close_out oc;
  Atomic_file.write ~path (fun oc -> output_string oc "fresh\n");
  Alcotest.(check string) "fresh write wins over stale temp" "fresh\n"
    (read_file path);
  Sys.remove path

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* A rename replaces whatever the destination names, so a FIFO, a
   directory or a symlink must be refused before any tempfile exists and
   be left exactly as it was. *)
let test_atomic_refuses_non_regular () =
  let refused kind path ~intact =
    (match Atomic_file.write ~path (fun oc -> output_string oc "replaced\n") with
    | () -> Alcotest.failf "%s was replaced" kind
    | exception Sys_error _ -> ());
    Alcotest.(check bool) (kind ^ " left as it was") true (intact ());
    Alcotest.(check bool) (kind ^ ": no tempfile") false
      (Sys.file_exists (Atomic_file.temp_path path))
  in
  let kind path = (Unix.lstat path).Unix.st_kind in
  let fifo = temp_path "mikpoly_test_atomic_fifo" in
  (try Sys.remove fifo with Sys_error _ -> ());
  Unix.mkfifo fifo 0o600;
  refused "fifo" fifo ~intact:(fun () -> kind fifo = Unix.S_FIFO);
  Sys.remove fifo;
  let dir = temp_path "mikpoly_test_atomic_dir" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  refused "directory" dir ~intact:(fun () -> Sys.is_directory dir);
  Sys.rmdir dir;
  let target = temp_path "mikpoly_test_atomic_link_target" in
  let link = temp_path "mikpoly_test_atomic_link" in
  write_file target "original\n";
  (try Sys.remove link with Sys_error _ -> ());
  Unix.symlink target link;
  refused "symlink" link ~intact:(fun () ->
      kind link = Unix.S_LNK && read_file target = "original\n");
  Sys.remove link;
  Sys.remove target

(* The check a command runs on an output path before doing any work: an
   absent path or a regular file passes; a missing directory, a file in
   the directory's place, a FIFO, a directory or a symlink is refused
   with [Sys_error], without opening the path (a FIFO would block an
   open) and without touching it. *)
let test_atomic_check_target () =
  let passes label path =
    match Atomic_file.check_target ~path with
    | () -> ()
    | exception Sys_error e -> Alcotest.failf "%s refused: %s" label e
  in
  let refused label path =
    match Atomic_file.check_target ~path with
    | () -> Alcotest.failf "%s accepted" label
    | exception Sys_error _ -> ()
  in
  let file = temp_path "mikpoly_test_check_file" in
  (try Sys.remove file with Sys_error _ -> ());
  passes "absent path" file;
  write_file file "kept\n";
  passes "regular file" file;
  refused "missing directory" "/nonexistent/d/x";
  refused "file as directory" (Filename.concat file "x");
  Alcotest.(check string) "file untouched" "kept\n" (read_file file);
  let fifo = temp_path "mikpoly_test_check_fifo" in
  (try Sys.remove fifo with Sys_error _ -> ());
  Unix.mkfifo fifo 0o600;
  refused "fifo" fifo;
  Alcotest.(check bool) "fifo left as it was" true
    ((Unix.lstat fifo).Unix.st_kind = Unix.S_FIFO);
  Sys.remove fifo;
  let dir = temp_path "mikpoly_test_check_dir" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  refused "directory" dir;
  Sys.rmdir dir;
  let link = temp_path "mikpoly_test_check_link" in
  (try Sys.remove link with Sys_error _ -> ());
  Unix.symlink file link;
  refused "symlink" link;
  Sys.remove link;
  Sys.remove file

(* --- Store checksums and crash safety --- *)

(* The offline stage is reused across compilers for the same platform,
   so forcing this once keeps every store/ladder test cheap. *)
let gpu_compiler = lazy (Mikpoly_core.Compiler.create gpu)

let tuned_set () = Mikpoly_core.Compiler.kernels (Lazy.force gpu_compiler)

let test_kernel_store_checksum () =
  let config = Mikpoly_core.Config.default gpu in
  let path = temp_path "mikpoly_test_fault_kernels.txt" in
  Mikpoly_core.Kernel_store.save ~path config (tuned_set ());
  (* Corrupt one body byte while leaving the 5-line header intact: only
     the checksum can catch this. *)
  let contents = read_file path in
  let nl = ref 0 and idx = ref 0 in
  String.iteri (fun i c -> if c = '\n' && !nl < 5 then (incr nl; idx := i)) contents;
  let body_pos = !idx + 2 in
  let corrupted = Bytes.of_string contents in
  Bytes.set corrupted body_pos
    (if Bytes.get corrupted body_pos = 'x' then 'y' else 'x');
  let oc = open_out path in
  output_string oc (Bytes.to_string corrupted);
  close_out oc;
  (match Mikpoly_core.Kernel_store.load ~path gpu config with
  | Ok _ -> Alcotest.fail "corrupted body must be rejected"
  | Error e ->
    Alcotest.(check bool) "error names the checksum" true
      (String.length e >= 8
      && String.lowercase_ascii e |> fun s ->
         let rec find i =
           i + 8 <= String.length s
           && (String.sub s i 8 = "checksum" || find (i + 1))
         in
         find 0));
  Sys.remove path

let test_kernel_store_survives_stale_temp () =
  let config = Mikpoly_core.Config.default gpu in
  let path = temp_path "mikpoly_test_fault_kernels_tmp.txt" in
  Mikpoly_core.Kernel_store.save ~path config (tuned_set ());
  (* Simulate a mid-write kill of a *later* save: a partial tempfile
     next to an intact artifact. Loading must not even notice. *)
  let oc = open_out (Atomic_file.temp_path path) in
  output_string oc "mikpoly-kernel-set v3\ntruncated mid-wri";
  close_out oc;
  (match Mikpoly_core.Kernel_store.load ~path gpu config with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("intact artifact rejected: " ^ e));
  Sys.remove (Atomic_file.temp_path path);
  Sys.remove path

let test_profile_store_checksum () =
  let path = temp_path "mikpoly_test_fault_profile.cal" in
  let cal =
    Mikpoly_adapt.Calibration.fit
      ~fingerprint:(Mikpoly_accel.Hardware.fingerprint gpu)
      [ ((16, 16, 16), [ (2., 5.) ]) ]
  in
  Mikpoly_adapt.Profile_store.save ~path gpu cal;
  Corrupt.file Corrupt.Bit_flip ~seed:0xBEEF ~path;
  (match Mikpoly_adapt.Profile_store.load ~path gpu with
  | Ok _ -> Alcotest.fail "bit-flipped profile must be rejected"
  | Error _ -> ());
  Sys.remove path

(* A directory at a store path is refused before it is opened, like a
   FIFO, which would block the open (ci.sh's store-safety stanza checks
   that case). *)
let test_store_load_refuses_directory () =
  let dir = temp_path "mikpoly_test_store_dir" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  let refused label = function
    | Ok _ -> Alcotest.failf "%s loaded a directory" label
    | Error e ->
      let says = "not a regular file" in
      let n = String.length says in
      let rec found i =
        i + n <= String.length e && (String.sub e i n = says || found (i + 1))
      in
      Alcotest.(check bool) (label ^ ": " ^ e) true (found 0)
  in
  refused "kernel store"
    (Mikpoly_core.Kernel_store.load ~path:dir gpu
       (Mikpoly_core.Config.default gpu));
  refused "profile store" (Mikpoly_adapt.Profile_store.load ~path:dir gpu);
  Sys.rmdir dir

(* --- Degradation ladder --- *)

let compile_one compiler =
  ignore
    (Mikpoly_core.Compiler.compile compiler
       (Mikpoly_ir.Operator.gemm ~m:96 ~n:96 ~k:64 ()))

let test_ladder_full_search_rung () =
  let compiler = Mikpoly_core.Compiler.create gpu in
  compile_one compiler;
  let s = Mikpoly_core.Compiler.ladder_stats compiler in
  Alcotest.(check int) "full search" 1 s.Mikpoly_core.Compiler.full_search;
  Alcotest.(check int) "no safe-generic" 0 s.Mikpoly_core.Compiler.safe_generic;
  Alcotest.(check bool) "not in safe mode" false
    (Mikpoly_core.Compiler.safe_mode compiler)

let test_ladder_rung_per_corruption_mode () =
  let config = Mikpoly_core.Config.default gpu in
  List.iter
    (fun mode ->
      let path = temp_path "mikpoly_test_fault_ladder.txt" in
      Mikpoly_core.Kernel_store.save ~path config (tuned_set ());
      Corrupt.file mode ~seed:0xC0 ~path;
      let compiler, reason =
        Mikpoly_core.Compiler.create_resilient ~store_path:path gpu
      in
      Alcotest.(check bool)
        (Corrupt.mode_name mode ^ " rejected")
        true (reason <> None);
      Alcotest.(check bool)
        (Corrupt.mode_name mode ^ " puts the compiler in safe mode")
        true
        (Mikpoly_core.Compiler.safe_mode compiler);
      compile_one compiler;
      let s = Mikpoly_core.Compiler.ladder_stats compiler in
      Alcotest.(check int)
        (Corrupt.mode_name mode ^ " compiles on the safe-generic rung")
        1 s.Mikpoly_core.Compiler.safe_generic;
      Sys.remove path)
    Corrupt.all_modes

let test_ladder_intact_and_missing_store () =
  let config = Mikpoly_core.Config.default gpu in
  let path = temp_path "mikpoly_test_fault_ladder_ok.txt" in
  Mikpoly_core.Kernel_store.save ~path config (tuned_set ());
  let compiler, reason =
    Mikpoly_core.Compiler.create_resilient ~store_path:path gpu
  in
  Alcotest.(check bool) "intact store accepted" true (reason = None);
  Alcotest.(check bool) "normal mode" false
    (Mikpoly_core.Compiler.safe_mode compiler);
  compile_one compiler;
  Alcotest.(check int) "full-search rung" 1
    (Mikpoly_core.Compiler.ladder_stats compiler).Mikpoly_core.Compiler
      .full_search;
  Sys.remove path;
  let compiler, reason =
    Mikpoly_core.Compiler.create_resilient ~store_path:path gpu
  in
  Alcotest.(check bool) "missing store reported" true (reason <> None);
  Alcotest.(check bool) "missing store means safe mode" true
    (Mikpoly_core.Compiler.safe_mode compiler)

let rungs compiler =
  let module C = Mikpoly_core.Compiler in
  let s = C.ladder_stats compiler in
  [ s.C.full_search; s.C.best_effort; s.C.single_pattern; s.C.safe_generic ]

(* A search cannot fail on any shape, so one that raises is a bug and
   must surface: under a correction that raises, neither [compile] nor
   [warm] returns a program, and no rung is counted. *)
let test_failing_search_raises () =
  let module C = Mikpoly_core.Compiler in
  let compiler = C.create gpu in
  C.set_correction compiler (Some (fun _ _ -> failwith "boom"));
  Alcotest.check_raises "compile" (Failure "boom") (fun () ->
      ignore (C.compile compiler (C.gemm compiler (1024, 1024, 1024))));
  let shapes = List.init 12 (fun i -> (64 * (i + 1), 96, 128)) in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "warm ~jobs:%d" jobs)
        (Failure "boom")
        (fun () -> ignore (C.warm ~jobs compiler shapes)))
    [ 1; 4 ];
  Alcotest.(check (list int)) "no rung counted" [ 0; 0; 0; 0 ] (rungs compiler);
  Alcotest.(check int) "nothing cached" 0 (C.cache_stats compiler).C.size

(* [warm] is one batched search of the compiler's kernel set in either
   mode: compiling warmed shapes returns exactly the programs, costs and
   tallies a fresh compiler's cold compiles return, with the same rung
   counts. *)
let test_warm_equals_cold () =
  let module C = Mikpoly_core.Compiler in
  let module P = Mikpoly_core.Polymerize in
  let rng = Mikpoly_util.Prng.create 0x3A11 in
  let drawn =
    List.init 48 (fun _ ->
        ( Mikpoly_util.Prng.int_in rng 1 2048,
          Mikpoly_util.Prng.int_in rng 1 2048,
          Mikpoly_util.Prng.int_in rng 1 2048 ))
  in
  (* Repeats exercise warm's de-duplication. *)
  let shapes = drawn @ [ List.hd drawn; List.nth drawn 7 ] in
  let tally (c : P.compiled) =
    Printf.sprintf "%s|%h|%d|%d|%d|%d"
      (Mikpoly_ir.Program.to_string c.P.program)
      c.P.predicted_cost c.P.candidates c.P.pruned c.P.pruned_analytic
      c.P.first_hit
  in
  let compile_all c = List.map (fun s -> tally (C.compile c (C.gemm c s))) shapes in
  let store = temp_path "mikpoly_test_fault_warm.txt" in
  Mikpoly_core.Kernel_store.save ~path:store (Mikpoly_core.Config.default gpu)
    (tuned_set ());
  Corrupt.file Corrupt.Bit_flip ~seed:0x3A ~path:store;
  let safe () =
    let c, reason = C.create_resilient ~store_path:store gpu in
    Alcotest.(check bool) "corrupt store means safe mode" true
      (reason <> None && C.safe_mode c);
    c
  in
  List.iter
    (fun (mode, make) ->
      let cold = make () in
      let expected = compile_all cold in
      List.iter
        (fun jobs ->
          let warmed = make () in
          let label = Printf.sprintf "%s, warm ~jobs:%d" mode jobs in
          Alcotest.(check int) (label ^ ": fresh compiles")
            (List.length (List.sort_uniq compare shapes))
            (C.warm ~jobs warmed shapes);
          Alcotest.(check (list string)) (label ^ ": programs") expected
            (compile_all warmed);
          Alcotest.(check (list int)) (label ^ ": rungs") (rungs cold)
            (rungs warmed))
        [ 1; 4 ])
    [ ("tuned", fun () -> C.create gpu); ("safe mode", safe) ];
  Sys.remove store

(* --- Store loader fuzz ---

   Each loader is fed its own artifact after one mutation: a
   [Corrupt] mode at some seed, or a "resealed" edit that sets one
   numeric body field to 0, -1, a huge value, nan or inf (or drops every
   entry) and then recomputes the checksum, so the body parser is
   reached. Loading must never raise, and must either refuse the
   artifact or return one the compiler can use. *)

type mutation =
  | Corrupted of Corrupt.mode * int
  | Resealed of int * string  (** numeric field index, new value *)
  | Emptied

let show_mutation = function
  | Corrupted (mode, seed) -> Printf.sprintf "%s seed %d" (Corrupt.mode_name mode) seed
  | Resealed (field, v) -> Printf.sprintf "field %d := %s" field v
  | Emptied -> "every entry dropped"

(* The numeric fields of a body: each token after a line's keyword that
   parses as a number, and each half of an [x:y] breakpoint, as
   (line, token, half). *)
let numeric_fields body =
  List.concat
    (List.mapi
       (fun li line ->
         List.concat
           (List.mapi
              (fun ti tok ->
                if ti = 0 then []
                else
                  List.concat
                    (List.mapi
                       (fun hi half ->
                         match float_of_string_opt half with
                         | Some _ -> [ (li, ti, hi) ]
                         | None -> [])
                       (String.split_on_char ':' tok)))
              (String.split_on_char ' ' line)))
       body)

let set_field body (li, ti, hi) value =
  let map_nth n f l = List.mapi (fun i x -> if i = n then f x else x) l in
  map_nth li
    (fun line ->
      String.split_on_char ' ' line
      |> map_nth ti (fun tok ->
             String.split_on_char ':' tok
             |> map_nth hi (fun old ->
                    (* An integer field gets a huge integer, a float field
                       a huge float. *)
                    if value <> "huge" then value
                    else if int_of_string_opt old <> None then "1000000"
                    else "1e30")
             |> String.concat ":")
      |> String.concat " ")
    body

(* [artifact] split into its [header] lines (checksum last) and body,
   mutated, and the checksum recomputed over the body by [checksum]. *)
let mutate ~header ~checksum artifact m =
  match m with
  | Corrupted (mode, seed) -> Corrupt.apply mode ~seed artifact
  | Resealed _ | Emptied ->
    let lines = String.split_on_char '\n' artifact in
    let lines = List.filteri (fun i _ -> i < List.length lines - 1) lines in
    let head = List.filteri (fun i _ -> i < header - 1) lines in
    let body = List.filteri (fun i _ -> i >= header) lines in
    let body =
      match m with
      | Resealed (field, v) -> set_field body (List.nth (numeric_fields body) field) v
      | _ -> []
    in
    String.concat "\n" (head @ [ "checksum " ^ checksum body ] @ body) ^ "\n"

let gen_mutation ~fields =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun mode seed -> Corrupted (mode, seed)) (oneofl Corrupt.all_modes) nat);
        ( 6,
          map2
            (fun field v -> Resealed (field, v))
            (int_bound (fields - 1))
            (oneofl [ "0"; "-1"; "huge"; "nan"; "inf" ]) );
        (1, return Emptied);
      ])

(* Fixed QCheck seed: the mutation space is finite, so the draw that
   reaches each regression must not depend on the run. *)
let fuzz_rand () = Random.State.make [| 0x5707e |]

let prop_kernel_store_load () =
  let config = Mikpoly_core.Config.default gpu in
  let path = temp_path "mikpoly_test_fuzz_kernels.txt" in
  (* Three tuned entries keep each case cheap. *)
  let set = tuned_set () in
  Mikpoly_core.Kernel_store.save ~path config
    { set with entries = Array.sub set.entries 0 3 };
  let artifact = read_file path in
  let body = List.filteri (fun i _ -> i >= 5) (String.split_on_char '\n' artifact) in
  let fields = List.length (numeric_fields body) in
  let checksum body = Mikpoly_util.Checksum.fnv1a64_hex (String.concat "\n" body) in
  QCheck.Test.make ~name:"kernel store: load rejects or serves full search"
    ~count:400
    (QCheck.make ~print:show_mutation (gen_mutation ~fields))
    (fun m ->
      write_file path (mutate ~header:5 ~checksum artifact m);
      let safe =
        match Mikpoly_core.Kernel_store.load ~path gpu config with
        | exception e ->
          QCheck.Test.fail_reportf "load raised %s" (Printexc.to_string e)
        | Error _ -> true
        | Ok _ ->
          let compiler, _ =
            Mikpoly_core.Compiler.create_resilient ~store_path:path gpu
          in
          compile_one compiler;
          (Mikpoly_core.Compiler.ladder_stats compiler).full_search = 1
      in
      Sys.remove path;
      safe)

let prop_profile_store_load () =
  let module Cal = Mikpoly_adapt.Calibration in
  let path = temp_path "mikpoly_test_fuzz_profile.cal" in
  (* One curve of each kind the fitter produces. *)
  let cal =
    Cal.of_curves ~fingerprint:(Mikpoly_accel.Hardware.fingerprint gpu)
      [
        ((16, 16, 16), Cal.Identity);
        ((32, 32, 16), Cal.Scale 1.25);
        ((64, 64, 32), Cal.Affine (1.5, 5.));
        ( (128, 64, 32),
          Cal.Knots
            (Mikpoly_util.Piecewise.of_points
               [ (1e3, 2e3); (1e5, 1.5e5); (1e7, 2e7) ]) );
      ]
  in
  Mikpoly_adapt.Profile_store.save ~path gpu cal;
  let artifact = read_file path in
  let body = List.filteri (fun i _ -> i >= 4) (String.split_on_char '\n' artifact) in
  let fields = List.length (numeric_fields body) in
  let checksum body =
    Mikpoly_util.Checksum.fnv1a64_hex
      (String.concat "" (List.map (fun l -> l ^ "\n") body))
  in
  (* Usable: every correction maps positive inputs to finite,
     non-negative costs, and a linear one keeps a positive slope. *)
  let usable cal =
    List.for_all
      (fun (key, curve) ->
        (match curve with
        | Cal.Scale a | Cal.Affine (a, _) -> a > 0.
        | Cal.Identity | Cal.Knots _ -> true)
        && List.for_all
             (fun x ->
               let y = Cal.apply cal key x in
               Float.is_finite y && y >= 0.)
             [ 1.; 1e3; 1e6; 1e9 ])
      (Cal.curves cal)
  in
  QCheck.Test.make ~name:"profile store: load rejects or corrects soundly"
    ~count:1000
    (QCheck.make ~print:show_mutation (gen_mutation ~fields))
    (fun m ->
      write_file path (mutate ~header:4 ~checksum artifact m);
      let safe =
        match Mikpoly_adapt.Profile_store.load ~path gpu with
        | exception e ->
          QCheck.Test.fail_reportf "load raised %s" (Printexc.to_string e)
        | Error _ -> true
        | Ok cal -> usable cal
      in
      Sys.remove path;
      safe)

(* --- Chaos scheduler --- *)

open Mikpoly_serve

let chaos_requests () =
  Request.poisson ~seed:3 ~rate:50. ~count:30 ~max_prompt:32 ~max_output:6 ()

let chaos_config =
  {
    Scheduler.replicas = 2;
    batcher = Batcher.Greedy { max_batch = 8 };
    bucketing = Bucketing.Aligned 4;
    cache_capacity = 16;
  }

let fast_retry =
  {
    Scheduler.retry =
      {
        Retry.max_attempts = 4;
        base_delay = 1e-3;
        max_delay = 20e-3;
        jitter = 0.25;
      };
    attempt_timeout = infinity;
    max_queue = 0;
    shed = `Reject_new;
  }

let test_chaos_conservation_and_reproducibility () =
  let requests = chaos_requests () in
  let faults = Plan.scenario ~seed:11 ~replicas:2 ~horizon:1.0 () in
  let engine = Scheduler.synthetic_engine () in
  let arm jobs =
    let saved = Mikpoly_util.Domain_pool.default_jobs () in
    Mikpoly_util.Domain_pool.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Mikpoly_util.Domain_pool.set_default_jobs saved)
      (fun () ->
        Resilience.run_arm ~arm_name:"t" ~faults ~resilience:(Some fast_retry)
          chaos_config engine requests)
  in
  let a = arm 1 in
  let b = arm 1 in
  let c = arm 4 in
  Alcotest.(check bool) "faults were injected" true (a.Resilience.injected_faults > 0);
  Alcotest.(check int) "no silent losses" 0 a.Resilience.silent_losses;
  Alcotest.(check string) "bit-identical across runs" a.Resilience.status_digest
    b.Resilience.status_digest;
  Alcotest.(check string) "bit-identical across job counts"
    a.Resilience.status_digest c.Resilience.status_digest

(* The digest's first formula, kept as its reference: Printf lines,
   sorted, joined, hashed. *)
let printf_digest named =
  List.map (fun (id, status) -> Printf.sprintf "%d=%s" id status) named
  |> List.sort String.compare |> String.concat "\n"
  |> Mikpoly_util.Checksum.fnv1a64_hex

let prop_status_digest_formula =
  QCheck.Test.make ~name:"status digest == sorted Printf lines hashed" ~count:200
    QCheck.(
      list
        (pair
           (oneof [ oneofl [ 1; 12; 123; 1234; -1; 0 ]; int ])
           (oneofl [ "completed"; "timed_out"; "rejected:queue"; "failed:crash"; "" ])))
    (fun named -> Resilience.digest named = printf_digest named)

let test_status_digest_edges () =
  List.iter
    (fun named ->
      Alcotest.(check string) "printf formula" (printf_digest named)
        (Resilience.digest named))
    [ []; [ (1, "completed") ]; [ (123, "a"); (12, "b"); (1, "c") ] ]

let test_chaos_without_resilience_is_loud () =
  let requests = chaos_requests () in
  let faults = Plan.make ~step_fail_rate:0.5 ~seed:5 () in
  let engine = Scheduler.synthetic_engine () in
  let o = Scheduler.run ~faults chaos_config engine requests in
  let statuses = Scheduler.statuses o in
  Alcotest.(check int) "every request has a terminal status"
    (List.length requests) (List.length statuses);
  Alcotest.(check bool) "failures are recorded, not dropped" true
    (o.Scheduler.failed <> []);
  List.iter
    (fun (_, why) ->
      Alcotest.(check bool) "failure carries a reason" true
        (String.length why > 0))
    o.Scheduler.failed;
  Alcotest.(check int) "no retries without resilience" 0 o.Scheduler.retries

let test_chaos_resilience_recovers () =
  let requests = chaos_requests () in
  let faults = Plan.make ~step_fail_rate:0.3 ~seed:5 () in
  let engine = Scheduler.synthetic_engine () in
  let without = Scheduler.run ~faults chaos_config engine requests in
  let with_r =
    Scheduler.run ~faults ~resilience:fast_retry chaos_config engine requests
  in
  Alcotest.(check bool) "the unprotected arm loses requests" true
    (List.length without.Scheduler.completed < List.length requests);
  Alcotest.(check bool) "resilience completes more" true
    (List.length with_r.Scheduler.completed
    > List.length without.Scheduler.completed);
  Alcotest.(check bool) "retries were spent" true (with_r.Scheduler.retries > 0)

let test_attempt_timeout () =
  let requests =
    [
      {
        Request.id = 0;
        arrival = 0.;
        prompt_len = 4;
        output_len = 2;
        slo = { Request.ttft = 10.; e2e = 10. };
      };
    ]
  in
  let engine = Scheduler.synthetic_engine ~base:0.2 () in
  let resilience =
    {
      fast_retry with
      Scheduler.attempt_timeout = 0.05;
      retry = { fast_retry.Scheduler.retry with Retry.max_attempts = 1 };
    }
  in
  let o =
    Scheduler.run ~resilience
      { chaos_config with Scheduler.replicas = 1 }
      engine requests
  in
  Alcotest.(check int) "request timed out" 1 (List.length o.Scheduler.timed_out);
  Alcotest.(check int) "nothing completed" 0 (List.length o.Scheduler.completed)

let test_load_shedding () =
  let requests =
    List.init 10 (fun id ->
        {
          Request.id;
          arrival = 0.;
          prompt_len = 4;
          output_len = 2;
          slo = { Request.ttft = 10.; e2e = 10. };
        })
  in
  let engine = Scheduler.synthetic_engine () in
  let config = { chaos_config with Scheduler.replicas = 1 } in
  let run shed =
    Scheduler.run
      ~resilience:{ fast_retry with Scheduler.max_queue = 3; shed }
      config engine requests
  in
  let reject = run `Reject_new and drop = run `Drop_oldest in
  Alcotest.(check int) "reject-new sheds the overflow" 7
    (List.length reject.Scheduler.rejected);
  Alcotest.(check int) "reject-new completes the queue bound" 3
    (List.length reject.Scheduler.completed);
  Alcotest.(check int) "drop-oldest sheds as many" 7
    (List.length drop.Scheduler.rejected);
  let completed_ids =
    List.sort compare
      (List.map
         (fun (c : Scheduler.completed) -> c.Scheduler.request.Request.id)
         drop.Scheduler.completed)
  in
  Alcotest.(check (list int)) "drop-oldest keeps the youngest arrivals"
    [ 7; 8; 9 ] completed_ids

let test_crash_requeue () =
  let requests =
    List.init 4 (fun id ->
        {
          Request.id;
          arrival = 0.;
          prompt_len = 8;
          output_len = 64;
          slo = { Request.ttft = 60.; e2e = 60. };
        })
  in
  (* Decoding 64 tokens takes tens of steps at >= 2 ms each, so a crash
     at 10 ms is guaranteed to land mid-flight. *)
  let faults = Plan.make ~crashes:[ (0.01, 0) ] ~restart_delay:0.1 ~seed:1 () in
  let engine = Scheduler.synthetic_engine () in
  let config = { chaos_config with Scheduler.replicas = 1 } in
  let without = Scheduler.run ~faults config engine requests in
  Alcotest.(check int) "one crash fired" 1 without.Scheduler.crashes;
  Alcotest.(check bool) "unprotected crash loses the in-flight work" true
    (without.Scheduler.failed <> []);
  let with_r = Scheduler.run ~faults ~resilience:fast_retry config engine requests in
  Alcotest.(check int) "resilient crash still fires" 1 with_r.Scheduler.crashes;
  Alcotest.(check int) "every request completes after the requeue" 4
    (List.length with_r.Scheduler.completed);
  Alcotest.(check bool) "the requeue counts as retries" true
    (with_r.Scheduler.retries > 0)

(* The canonical chaos A/B of the [resilience] experiment at its default
   seed (the [chaos] subcommand's CI smoke runs seed 7): every
   acceptance gate holds. *)
let test_canonical_chaos_gates () =
  let module E = Mikpoly_experiments.Exp_resilience in
  let ab, _ =
    E.chaos_ab ~quick:true
      (Mikpoly_core.Compiler.create Mikpoly_accel.Hardware.a100)
  in
  List.iter
    (fun (g : Mikpoly_experiments.Exp.gate) ->
      Alcotest.(check bool) (g.gate_name ^ ": " ^ g.gate_detail) true g.gate_ok)
    (E.gates ab)

(* A crash aimed past the fleet is a malformed plan: rejected before the
   first event, naming the index and the fleet size. *)
let test_crash_index_out_of_range () =
  let run faults =
    ignore
      (Scheduler.run ~faults chaos_config (Scheduler.synthetic_engine ())
         (chaos_requests ()))
  in
  Alcotest.check_raises "crash on replica 5 of 2 rejected"
    (Invalid_argument
       "Scheduler.run: fault plan crashes replica 5 of a 2-replica fleet")
    (fun () -> run (Plan.make ~crashes:[ (0.05, 5) ] ~seed:1 ()));
  Alcotest.check_raises "negative crash replica rejected"
    (Invalid_argument
       "Scheduler.run: fault plan crashes replica -1 of a 2-replica fleet")
    (fun () -> run { Plan.none with crashes = [ (0.05, -1) ] })

(* The waiting queues order requests by (arrival, id), so a trace with a
   repeated id or an arrival that is not a finite number has no order:
   rejected before the first event, naming the request. *)
let run_trace requests =
  ignore (Scheduler.run chaos_config (Scheduler.synthetic_engine ()) requests)

let test_repeated_request_id () =
  let requests = chaos_requests () in
  let twin = { (List.nth requests 7) with Request.arrival = 0.9 } in
  Alcotest.check_raises "a repeated id is rejected"
    (Invalid_argument "Scheduler.run: request id 7 appears more than once")
    (fun () -> run_trace (requests @ [ twin ]))

let test_nan_arrival () =
  let requests =
    List.mapi
      (fun i (r : Request.t) -> if i = 4 then { r with arrival = nan } else r)
      (chaos_requests ())
  in
  Alcotest.check_raises "a NaN arrival is rejected"
    (Invalid_argument "Scheduler.run: request 4 arrives at nan") (fun () ->
      run_trace requests)

let test_infinite_arrival () =
  let requests =
    List.mapi
      (fun i (r : Request.t) ->
        if i = 29 then { r with arrival = infinity } else r)
      (chaos_requests ())
  in
  Alcotest.check_raises "an infinite arrival is rejected"
    (Invalid_argument "Scheduler.run: request 29 arrives at inf") (fun () ->
      run_trace requests)

(* A request with nothing to decode would never complete, so the loop
   would never drain. *)
let test_zero_output () =
  let requests =
    List.mapi
      (fun i (r : Request.t) -> if i = 12 then { r with output_len = 0 } else r)
      (chaos_requests ())
  in
  Alcotest.check_raises "an output length of 0 is rejected"
    (Invalid_argument "Scheduler.run: request 12 has output_len 0, below 1")
    (fun () -> run_trace requests)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "none quiet, scenario seeded" `Quick test_plan_quiet;
          Alcotest.test_case "stateless determinism" `Quick
            test_plan_stateless_determinism;
          Alcotest.test_case "rate extremes" `Quick test_plan_rate_extremes;
          Alcotest.test_case "validates rates" `Quick test_plan_validates;
          Alcotest.test_case "validates crash replicas" `Quick
            test_plan_validates_crashes;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff and jitter bounds" `Quick test_retry_bounds;
          Alcotest.test_case "deterministic per seed" `Quick
            test_retry_deterministic;
          Alcotest.test_case "no jitter is exact" `Quick
            test_retry_no_jitter_is_exact;
          Alcotest.test_case "validates" `Quick test_retry_validates;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trip, half-open, recover" `Quick
            test_breaker_trip_halfopen_recover;
          Alcotest.test_case "half-open failure reopens" `Quick
            test_breaker_halfopen_failure_reopens;
          Alcotest.test_case "success resets the streak" `Quick
            test_breaker_success_resets_streak;
          Alcotest.test_case "nan cooldown rejected" `Quick
            test_breaker_rejects_nan_cooldown;
        ] );
      ( "device",
        [ Alcotest.test_case "bounded seeded draws" `Quick test_device_draws ] );
      ( "corrupt",
        [ Alcotest.test_case "all modes, deterministic" `Quick test_corrupt_modes ] );
      ( "atomic file",
        [
          Alcotest.test_case "roundtrip" `Quick test_atomic_write_roundtrip;
          Alcotest.test_case "mid-write kill" `Quick test_atomic_midwrite_kill;
          Alcotest.test_case "refuses non-regular targets" `Quick
            test_atomic_refuses_non_regular;
          Alcotest.test_case "checks the target before any work" `Quick
            test_atomic_check_target;
        ] );
      ( "stores",
        [
          Alcotest.test_case "kernel store checksum" `Quick
            test_kernel_store_checksum;
          Alcotest.test_case "kernel store ignores stale temp" `Quick
            test_kernel_store_survives_stale_temp;
          Alcotest.test_case "profile store checksum" `Quick
            test_profile_store_checksum;
          Alcotest.test_case "store load refuses a directory" `Quick
            test_store_load_refuses_directory;
          QCheck_alcotest.to_alcotest ~rand:(fuzz_rand ())
            (prop_kernel_store_load ());
          QCheck_alcotest.to_alcotest ~rand:(fuzz_rand ())
            (prop_profile_store_load ());
        ] );
      ( "ladder",
        [
          Alcotest.test_case "full-search rung" `Quick
            test_ladder_full_search_rung;
          Alcotest.test_case "safe-generic rung per corruption mode" `Quick
            test_ladder_rung_per_corruption_mode;
          Alcotest.test_case "intact and missing stores" `Quick
            test_ladder_intact_and_missing_store;
          Alcotest.test_case "a failing search raises" `Quick
            test_failing_search_raises;
          Alcotest.test_case "warm equals cold" `Quick test_warm_equals_cold;
        ] );
      ( "chaos scheduler",
        [
          Alcotest.test_case "conservation and reproducibility" `Quick
            test_chaos_conservation_and_reproducibility;
          Alcotest.test_case "unprotected losses are loud" `Quick
            test_chaos_without_resilience_is_loud;
          Alcotest.test_case "resilience recovers" `Quick
            test_chaos_resilience_recovers;
          Alcotest.test_case "attempt timeout" `Quick test_attempt_timeout;
          Alcotest.test_case "load shedding" `Quick test_load_shedding;
          Alcotest.test_case "crash requeue" `Quick test_crash_requeue;
          Alcotest.test_case "crash index out of range" `Quick
            test_crash_index_out_of_range;
          Alcotest.test_case "repeated request id" `Quick
            test_repeated_request_id;
          Alcotest.test_case "NaN arrival" `Quick test_nan_arrival;
          Alcotest.test_case "infinite arrival" `Quick test_infinite_arrival;
          Alcotest.test_case "zero output" `Quick test_zero_output;
          Alcotest.test_case "canonical A/B gates" `Quick
            test_canonical_chaos_gates;
          Alcotest.test_case "status digest edge cases" `Quick
            test_status_digest_edges;
          QCheck_alcotest.to_alcotest prop_status_digest_formula;
        ] );
    ]
