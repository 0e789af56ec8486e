module Span = Mikpoly_telemetry.Span

type span = Span.t

type t = {
  spans : span list;
  makespan : float;
  num_pes : int;
  track : string;
  clock_hz : float;
}

let pe (s : span) = s.lane

let warps (s : span) = Span.int_attr s "warps"

let region (s : span) = Span.int_attr s "region"

let record (hw : Hardware.t) (load : Load.t) =
  if Load.total_tasks load > Sched.event_sim_threshold then
    invalid_arg "Trace.record: program too large for event-driven simulation";
  let works = List.map (Simulator.region_work hw) load.regions in
  let track = "device/" ^ hw.name in
  let kernel_names =
    Array.of_list
      (List.map (fun (r : Load.region) -> Kernel_desc.name r.kernel) load.regions)
  in
  (* Attribute lists are shared per (region, warps) pair: one allocation
     per region, not per task. *)
  let attrs_of =
    Array.mapi
      (fun i (w : Sched.region_work) ->
        [ ("region", string_of_int i); ("warps", string_of_int w.warps) ])
      (Array.of_list works)
  in
  let spans = ref [] in
  let next_id = ref 0 in
  let on_span ~pe ~start ~finish ~warps:_ ~region =
    let id = !next_id in
    incr next_id;
    spans :=
      Span.make ~id ~lane:pe ~attrs:attrs_of.(region) ~track
        ~name:kernel_names.(region) ~start ~finish ()
      :: !spans
  in
  let path =
    match load.regions with
    | [] -> Hardware.Matrix
    | r :: _ -> r.kernel.path
  in
  let outcome =
    match hw.kind with
    | Gpu ->
      Sched.schedule_gpu ~on_span ~num_pes:hw.num_pes
        ~slot_capacity:(Hardware.slots hw path) works
    | Npu -> Sched.schedule_npu ~on_span ~num_pes:hw.num_pes works
  in
  {
    spans = List.rev !spans;
    makespan = outcome.makespan;
    num_pes = hw.num_pes;
    track;
    clock_hz = hw.clock_hz;
  }

let occupancy t ~at =
  if t.num_pes = 0 then 0.
  else begin
    let busy = Array.make t.num_pes false in
    List.iter
      (fun (s : span) ->
        if s.start <= at && at < s.finish then busy.(pe s) <- true)
      t.spans;
    let n = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 busy in
    float_of_int n /. float_of_int t.num_pes
  end

let shade frac =
  if frac <= 0. then ' '
  else if frac < 0.25 then '.'
  else if frac < 0.5 then '-'
  else if frac < 0.75 then '='
  else '#'

let ascii_timeline ?(width = 60) t =
  if t.makespan <= 0. || t.spans = [] then "(empty trace)"
  else begin
    let regions =
      1 + List.fold_left (fun acc s -> max acc (region s)) 0 t.spans
    in
    let bucket_of time =
      min (width - 1)
        (int_of_float (time /. t.makespan *. float_of_int width))
    in
    (* Per (region, bucket): PE-cycles of residency. *)
    let cells = Array.make_matrix regions width 0. in
    let bucket_span = t.makespan /. float_of_int width in
    List.iter
      (fun (s : span) ->
        let r = region s in
        let b0 = bucket_of s.start and b1 = bucket_of (s.finish -. 1e-9) in
        for b = b0 to b1 do
          let lo = max s.start (float_of_int b *. bucket_span) in
          let hi = min s.finish (float_of_int (b + 1) *. bucket_span) in
          if hi > lo then cells.(r).(b) <- cells.(r).(b) +. (hi -. lo)
        done)
      t.spans;
    let capacity = bucket_span *. float_of_int t.num_pes in
    let line region =
      let buf = Bytes.make width ' ' in
      for b = 0 to width - 1 do
        Bytes.set buf b (shade (cells.(region).(b) /. capacity))
      done;
      Printf.sprintf "region %d |%s|" region (Bytes.to_string buf)
    in
    let total = Bytes.make width ' ' in
    for b = 0 to width - 1 do
      let sum = ref 0. in
      for r = 0 to regions - 1 do
        sum := !sum +. cells.(r).(b)
      done;
      Bytes.set total b (shade (!sum /. capacity))
    done;
    String.concat "\n"
      (List.init regions line
      @ [ Printf.sprintf "device   |%s|" (Bytes.to_string total) ])
  end
