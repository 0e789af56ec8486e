type region_work = {
  duration : float;
  warps : int;
  blocks_per_pe : int;
  count : int;
}

type outcome = {
  makespan : float;
  busy_pe_cycles : float;
  exact : bool;
}

let event_sim_threshold = 300_000

let total_count regions = List.fold_left (fun acc r -> acc + r.count) 0 regions

let check ~num_pes ~slot_capacity regions =
  if num_pes < 1 then invalid_arg "Sched: num_pes must be >= 1";
  List.iter
    (fun r ->
      if r.count < 0 || not (r.duration >= 0.) then
        invalid_arg "Sched: count and duration must be >= 0";
      if r.warps < 1 || r.warps > slot_capacity then
        invalid_arg "Sched: task does not fit on a PE";
      if r.blocks_per_pe < 1 then invalid_arg "Sched: kernel does not fit")
    regions

(* Smooth model: each region streams through the device at its own wave
   capacity; partial-wave effects are ignored (valid when waves >> 1). *)
let analytic ~num_pes regions =
  let p = float_of_int num_pes in
  let makespan, busy =
    List.fold_left
      (fun (mk, busy) r ->
        let cap = float_of_int (num_pes * r.blocks_per_pe) in
        let n = float_of_int r.count in
        let span = n /. cap *. r.duration in
        (mk +. span, busy +. (n *. r.duration /. float_of_int r.blocks_per_pe)))
      (0., 0.) regions
  in
  { makespan; busy_pe_cycles = min busy (p *. makespan); exact = false }

(* --- GPU event-driven dispatcher --- *)

module Heap = Mikpoly_util.Heap

module Gpu_state = struct
  type t = {
    slot_capacity : int;
    free : int array;  (** free slots per PE *)
    buckets : int array array;
        (** PE indices by free-slot count (lazy): a stack per count, its
            top at [depth - 1] *)
    depth : int array;
    resident : int array;  (** resident tasks per PE *)
    busy_since : float array;
    busy_accum : float array;
  }

  let create ~num_pes ~slot_capacity =
    let t =
      {
        slot_capacity;
        free = Array.make num_pes slot_capacity;
        buckets = Array.make (slot_capacity + 1) [||];
        depth = Array.make (slot_capacity + 1) 0;
        resident = Array.make num_pes 0;
        busy_since = Array.make num_pes 0.;
        busy_accum = Array.make num_pes 0.;
      }
    in
    (* PE 0 on top. *)
    t.buckets.(slot_capacity) <- Array.init num_pes (fun i -> num_pes - 1 - i);
    t.depth.(slot_capacity) <- num_pes;
    t

  (* Find a PE with at least [warps] free slots, preferring the emptiest
     (spreads blocks across SMs like the hardware distributor); -1 if
     none. Entries in the buckets may be stale; validate against [free]
     on pop. *)
  let rec pop_bucket t b =
    if t.depth.(b) = 0 then -1
    else begin
      let d = t.depth.(b) - 1 in
      t.depth.(b) <- d;
      let pe = t.buckets.(b).(d) in
      if t.free.(pe) = b then pe else pop_bucket t b
    end

  let rec scan_buckets t ~warps b =
    if b < warps then -1
    else
      let pe = pop_bucket t b in
      if pe >= 0 then pe else scan_buckets t ~warps (b - 1)

  let find_pe t ~warps = scan_buckets t ~warps t.slot_capacity

  (* A PE with no free slot takes no task, so bucket 0 is never read and
     not kept. *)
  let push_bucket t pe =
    let b = t.free.(pe) in
    if b > 0 then begin
      let d = t.depth.(b) in
      if d = Array.length t.buckets.(b) then begin
        let grown = Array.make (max 16 (2 * d)) 0 in
        Array.blit t.buckets.(b) 0 grown 0 d;
        t.buckets.(b) <- grown
      end;
      t.buckets.(b).(d) <- pe;
      t.depth.(b) <- d + 1
    end

  (* Inlined, so that [time] is not boxed per task. *)
  let[@inline] assign t ~time ~pe ~warps =
    t.free.(pe) <- t.free.(pe) - warps;
    push_bucket t pe;
    if t.resident.(pe) = 0 then t.busy_since.(pe) <- time;
    t.resident.(pe) <- t.resident.(pe) + 1

  let[@inline] release t ~time ~pe ~warps =
    t.free.(pe) <- t.free.(pe) + warps;
    push_bucket t pe;
    t.resident.(pe) <- t.resident.(pe) - 1;
    if t.resident.(pe) = 0 then
      t.busy_accum.(pe) <- t.busy_accum.(pe) +. (time -. t.busy_since.(pe))
end

let schedule_gpu ?on_span ~num_pes ~slot_capacity regions =
  check ~num_pes ~slot_capacity regions;
  let regions = List.filter (fun r -> r.count > 0) regions in
  if regions = [] then { makespan = 0.; busy_pe_cycles = 0.; exact = true }
  else if total_count regions > event_sim_threshold then analytic ~num_pes regions
  else begin
    let st = Gpu_state.create ~num_pes ~slot_capacity in
    let remaining = Array.of_list regions in
    let n = Array.length remaining in
    let left = Array.map (fun r -> r.count) remaining in
    (* Pending completions keyed by finish time, payload [pe * radix +
       warps]. The tie is constant: equal times pop in the heap's own
       order. *)
    let radix = slot_capacity + 1 in
    let events = Heap.create () in
    let time = ref 0. in
    let running = ref true in
    while !running do
      (* FIFO dispatch with stream fill: the earliest region with work
         whose task fits some PE goes next, then the scan restarts. *)
      let i = ref 0 in
      while !i < n do
        let r = remaining.(!i) in
        let pe = if left.(!i) > 0 then Gpu_state.find_pe st ~warps:r.warps else -1 in
        if pe < 0 then incr i
        else begin
          Gpu_state.assign st ~time:!time ~pe ~warps:r.warps;
          left.(!i) <- left.(!i) - 1;
          Heap.push events (!time +. r.duration) 0 ((pe * radix) + r.warps);
          (match on_span with
          | Some f ->
            f ~pe ~start:!time ~finish:(!time +. r.duration) ~warps:r.warps
              ~region:!i
          | None -> ());
          i := 0
        end
      done;
      if Heap.is_empty events then running := false
      else begin
        time := Heap.min_key events;
        let ev = Heap.pop events in
        Gpu_state.release st ~time:!time ~pe:(ev / radix) ~warps:(ev mod radix)
      end
    done;
    let busy = Array.fold_left ( +. ) 0. st.busy_accum in
    { makespan = !time; busy_pe_cycles = busy; exact = true }
  end

(* --- NPU static max-min --- *)

let schedule_npu ?on_span ~num_pes regions =
  check ~num_pes ~slot_capacity:1 regions;
  let regions = List.filter (fun r -> r.count > 0) regions in
  if regions = [] then { makespan = 0.; busy_pe_cycles = 0.; exact = true }
  else if total_count regions > event_sim_threshold then analytic ~num_pes regions
  else begin
    (* Static max-min: longest tasks first, each onto the least-loaded
       core. Cores of equal load form a group; groups [0, ng) ascend
       strictly by load. The next [cores.(0)] tasks all start at
       [load.(0)], so a region's tasks lift the lowest group whole by one
       [+. duration], again and again, and only the last lift may split
       it. A task's start depends only on the multiset of loads, so each
       is the one a heap of per-core loads would give (DESIGN §5). *)
    let sorted =
      List.stable_sort
        (fun (_, a) (_, b) -> Float.compare b.duration a.duration)
        (List.mapi (fun i r -> (i, r)) regions)
    in
    let load = Array.make num_pes 0. and cores = Array.make num_pes 0 in
    cores.(0) <- num_pes;
    let ng = ref 1 in
    (* Take [k] cores out of group 0, deleting it if it empties. [take]
       and [add] are inlined: the call would box [l] and allocate the
       closures. *)
    let[@inline] take k =
      cores.(0) <- cores.(0) - k;
      if cores.(0) = 0 then begin
        Array.blit load 1 load 0 (!ng - 1);
        Array.blit cores 1 cores 0 (!ng - 1);
        decr ng
      end
    in
    (* Add [k] cores at load [l], into the group of exactly that load if
       there is one. *)
    let[@inline] add l k =
      let i = ref 0 in
      while !i < !ng && load.(!i) < l do
        incr i
      done;
      if !i < !ng && load.(!i) = l then cores.(!i) <- cores.(!i) + k
      else begin
        Array.blit load !i load (!i + 1) (!ng - !i);
        Array.blit cores !i cores (!i + 1) (!ng - !i);
        load.(!i) <- l;
        cores.(!i) <- k;
        incr ng
      end
    in
    (* Per-core loads, read only to name each task's core. *)
    let core_load = Array.make num_pes 0. in
    List.iter
      (fun (region, r) ->
        let left = ref r.count in
        while !left > 0 do
          let k = min !left cores.(0) in
          let l = load.(0) in
          let l' = l +. r.duration in
          (match on_span with
          | Some f ->
            (* Each task onto the lowest-index core still at [l]. *)
            let pe = ref 0 and placed = ref 0 in
            while !placed < k do
              if core_load.(!pe) = l then begin
                f ~pe:!pe ~start:l ~finish:l' ~warps:1 ~region;
                core_load.(!pe) <- l';
                incr placed
              end;
              incr pe
            done
          | None -> ());
          take k;
          add l' k;
          left := !left - k
        done)
      sorted;
    (* The drain: loads in ascending order, as a heap would pop them. *)
    let busy = ref 0. in
    for g = 0 to !ng - 1 do
      for _ = 1 to cores.(g) do
        busy := !busy +. load.(g)
      done
    done;
    { makespan = load.(!ng - 1); busy_pe_cycles = !busy; exact = true }
  end
