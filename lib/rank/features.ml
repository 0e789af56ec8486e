module Hardware = Mikpoly_accel.Hardware
module Load = Mikpoly_accel.Load

let schema_version = 1

(* The feature names are part of the schema identity: adding, removing or
   reordering a feature changes [schema_id], which the ranking report
   records, so results from different feature layouts are never
   mistaken for one another. The first
   [shape_dim] features depend only on the (shape × kernel-geometry)
   candidate and carry platform-independent meaning; the rest are
   platform-local — the kernel-set identity feature and the hardware
   constants. Cross-fingerprint transfer rides on that split: stumps
   fitted on GPU observations that split on shape features remain
   informative on the NPU, while splits on the local suffix would encode
   the source platform (a per-kernel intercept is exactly as
   non-transferable as a calibration curve) and are dropped. *)
let names =
  [|
    "log_m";
    "log_n";
    "log_k";
    "aspect_mn";
    "log_tasks";
    "last_wave_fill";
    "pad_m";
    "pad_n";
    "pad_k";
    "log_um";  (* first platform-local feature: index [shape_dim] *)
    "log_un";
    "log_uk";
    "log_waves";
    "log_pipe";
    "log_raw";
    "tile_id";
    "hw_kind";
    "log_pes";
    "log_clock";
    "log_matrix_flops";
    "log_local_mem";
    "log_fabric_bpc";
    "log_dram_bpc";
    "log_matrix_slots";
    "log_launch_cycles";
  |]

let dim = Array.length names

(* Only mechanism-driven, scale-free quantities qualify as transferable.
   Log problem extents and aspect are pure shape — within one shape they
   are constant across candidates, so (the ranker only ever compares
   within a shape) stumps on them are ranking-neutral and cannot mislead
   a target platform. Task counts and the padding/fill ratios couple
   shape to kernel geometry through effects whose sign survives a
   platform change (doubled launch overhead bites low task counts;
   wasted last-wave capacity and padding bite wherever they occur).
   Everything else is platform-local: tile-extent thresholds learned on
   one platform's kernel set partition another's arbitrarily (a wrong
   per-kernel intercept), and wave counts, pipeline depths and raw cycle
   predictions carry platform-scale magnitudes. *)
let shape_dim = 9

let schema_id =
  Printf.sprintf "rank-fs-v%d-%s" schema_version
    (Mikpoly_util.Checksum.fnv1a64_hex
       (String.concat "," (Array.to_list names)))

let logf x = log (Float.max 1e-12 x)

let logi i = logf (float_of_int i)

let of_candidate ~(hw : Hardware.t) ~m ~n ~k ~um ~un ~uk ~wave_capacity
    ~n_tasks ~pipe =
  let waves = Load.waves ~capacity:wave_capacity n_tasks in
  let raw = float_of_int waves *. pipe in
  (* Tasks in the (partial) last wave: 1.0 = the wave quantization is
     free, small values = most of the last wave's capacity is wasted —
     the effect Eq. 2's ceiling models only coarsely. *)
  let last = n_tasks - ((waves - 1) * wave_capacity) in
  let pad extent u =
    float_of_int ((Load.ceil_div extent u * u) - extent) /. float_of_int extent
  in
  [|
    logi m;
    logi n;
    logi k;
    logi m -. logi n;
    logi n_tasks;
    float_of_int last /. float_of_int wave_capacity;
    pad m um;
    pad n un;
    pad k uk;
    logi um;
    logi un;
    logi uk;
    logi waves;
    logf pipe;
    logf raw;
    (* Distinct value per tile geometry, ordered lexicographically by
       (uM, uN, uK): a handful of threshold splits isolates any one
       kernel, giving the additive stumps per-kernel intercepts — the
       expressiveness calibration's per-kernel curves get for free.
       Platform-local (outside [shape_dim]): an intercept for one
       platform's kernel is meaningless for another's that happens to
       share the tile. *)
    float_of_int ((um * 4096 * 4096) + (un * 4096) + uk);
    (match hw.kind with Hardware.Gpu -> 0. | Hardware.Npu -> 1.);
    logi hw.num_pes;
    logf hw.clock_hz;
    logf hw.matrix_flops_per_cycle;
    logi hw.local_mem_bytes;
    logf hw.fabric_bytes_per_cycle;
    logf hw.dram_bytes_per_cycle;
    logi hw.matrix_slots;
    logf (hw.launch_overhead_s *. hw.clock_hz);
  |]
