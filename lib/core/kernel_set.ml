open Mikpoly_accel
open Mikpoly_autosched

type entry = {
  desc : Kernel_desc.t;
  model : Perf_model.t;
  wave_capacity : int;
  rank : int;
  rank_score : float;
}

type t = {
  hw : Hardware.t;
  entries : entry array;
}

(* The memo is shared by every domain that compiles (pool workers, the
   serving scheduler's precompile fan-out), so all access goes through
   [cache_lock]. [create] holds the lock across the whole tuning pass:
   a second domain asking for the same platform blocks and then hits the
   memo, so the offline stage runs exactly once per (hw, config) — the
   busy-pool fallback of {!Mikpoly_util.Domain_pool.map} keeps the
   pool-using autotuner from deadlocking while the lock is held. *)
let cache : (string, t) Hashtbl.t = Hashtbl.create 8

let cache_lock = Mutex.create ()

let clear_cache () =
  Mutex.lock cache_lock;
  Hashtbl.reset cache;
  Mutex.unlock cache_lock

(* Offline-stage observability: the per-platform tuning pass is the
   expensive, once-per-deployment half of MikPoly — count it and (when
   tracing) put it on the timeline so online spans can be attributed
   against it. *)
let m_tunes = Mikpoly_telemetry.Metrics.counter "offline.tunes"

let create hw (config : Config.t) =
  let key = hw.Hardware.name ^ "|" ^ Config.cache_key config in
  Mutex.lock cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_lock)
    (fun () ->
      match Hashtbl.find_opt cache key with
      | Some t -> t
      | None ->
        Mikpoly_telemetry.Tracer.with_span "offline.tune"
          ~attrs:[ ("hw", hw.Hardware.name) ]
          (fun () ->
            Mikpoly_telemetry.Metrics.incr m_tunes;
            let tuned =
              Autotuner.generate ~n_gen:config.n_gen
                ~n_syn:config.n_syn ~n_mik:config.n_mik ~n_pred:config.n_pred
                ~dtype:config.dtype ~path:config.path
                ~codegen_eff:config.codegen_eff ~rank_style:config.rank_style
                hw
            in
            let entries =
              Array.of_list
                (List.mapi
                   (fun rank (tk : Autotuner.tuned) ->
                     {
                       desc = tk.model.kernel;
                       model = tk.model;
                       wave_capacity = Kernel_model.wave_capacity hw tk.model.kernel;
                       rank;
                       rank_score = tk.rank_score;
                     })
                   tuned)
            in
            Mikpoly_telemetry.Tracer.annotate "kernels"
              (string_of_int (Array.length entries));
            let t = { hw; entries } in
            Hashtbl.replace cache key t;
            t))

(* The degradation ladder's last rung: one conservative 16×16×16 kernel
   (the MMA/cube granularity, so it tiles every shape) with a freshly
   learned performance model. No tuning pass, no kernel store, no memo —
   nothing that can fail is involved, which is the point. *)
let safe_generic hw (config : Config.t) =
  let desc =
    Kernel_desc.make ~dtype:config.dtype ~path:config.path
      ~codegen_eff:config.codegen_eff ~origin:"safe-generic" ~um:16 ~un:16
      ~uk:16 ()
  in
  let model = Perf_model.learn ~n_pred:config.n_pred hw desc in
  let entry =
    {
      desc;
      model;
      wave_capacity = Kernel_model.wave_capacity hw desc;
      rank = 0;
      rank_score = 0.;
    }
  in
  { hw; entries = [| entry |] }

let size t = Array.length t.entries

let find t ~um ~un ~uk =
  Array.find_opt
    (fun e -> e.desc.Kernel_desc.um = um && e.desc.un = un && e.desc.uk = uk)
    t.entries
