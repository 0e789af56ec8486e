(* Extension (ROADMAP north star, paper Section 7): an SLO-aware serving
   deployment on top of on-the-fly polymerization. Two Llama2-13b
   replicas run continuous batching over a Poisson request stream at
   increasing load; we sweep shape-bucketing x batching policies with a
   bounded per-replica program cache against (a) a cache-less engine
   that re-polymerizes on every micro-kernel launch and (b) a
   static-padding engine (worst-case compilation, Nimble-style). *)

open Mikpoly_util
open Mikpoly_serve

let replicas = 2

let mk_config ?(cache = 64) batcher bucketing =
  { Scheduler.replicas; batcher; bucketing; cache_capacity = cache }

let lru_bucketed_label = "LRU+aligned greedy"

let no_cache_label = "no-cache exact"

let configs =
  let mb = 32 in
  [
    (lru_bucketed_label, mk_config (Batcher.Greedy { max_batch = mb }) (Bucketing.Aligned 8));
    ("LRU+pow2 SLO-aware", mk_config (Batcher.Slo_aware { max_batch = mb }) Bucketing.Pow2);
    ("LRU+exact timeout", mk_config (Batcher.Timeout { max_batch = mb; window = 8e-3 }) Bucketing.Exact);
    (no_cache_label, mk_config ~cache:0 (Batcher.Greedy { max_batch = mb }) Bucketing.Exact);
    ("static padding", mk_config ~cache:8 (Batcher.Greedy { max_batch = mb }) (Bucketing.Fixed 256));
  ]

let run ~quick =
  let engine = Scheduler.mikpoly_engine (Backends.gpu ()) in
  let rates = if quick then [ 15.; 60. ] else [ 10.; 30.; 90. ] in
  let trace rate =
    Request.poisson
      ~seed:(Mikpoly_util.Prng.default_seed ~fallback:0x5E2 ())
      ~rate
      ~count:(if quick then 16 else 96)
      ~max_prompt:(if quick then 64 else 256)
      ~max_output:(if quick then 8 else 48)
      ()
  in
  let table =
    Table.create ~title:"Serving: bucketing x batching under increasing load"
      ~header:("load r/s" :: Metrics.header)
  in
  let results =
    List.map
      (fun rate ->
        let requests = trace rate in
        let per_config =
          List.map
            (fun (label, config) ->
              let m =
                Metrics.of_outcome (Scheduler.run config engine requests)
              in
              Table.add_row table
                (Printf.sprintf "%.0f" rate :: Metrics.to_row ~label m);
              (label, m))
            configs
        in
        (rate, per_config))
      rates
  in
  let top_rate, top = List.nth results (List.length results - 1) in
  let p95 label = (List.assoc label top).Metrics.latency_p95 in
  let hit label = (List.assoc label top).Metrics.cache_hit_rate in
  let summary =
    [
      Printf.sprintf
        "At the highest load (%.0f req/s), the bounded LRU cache with aligned bucketing serves p95 = %s vs %s without a program cache (%.2fx lower p95, %.0f%% cache hits): polymerizing on the fly only pays off in serving when the runtime amortizes per-shape compilation across the stream."
        top_rate
        (Table.fmt_time_us (p95 lru_bucketed_label))
        (Table.fmt_time_us (p95 no_cache_label))
        (p95 no_cache_label /. p95 lru_bucketed_label)
        (100. *. hit lru_bucketed_label);
      Printf.sprintf
        "Static padding holds the cache trivially hot but burns %.0f%% padded tokens; SLO-aware admission sheds late requests instead of queueing them (goodput %.1f vs %.1f req/s greedy at %.0f req/s)."
        (100. *. (List.assoc "static padding" top).Metrics.padding_overhead)
        (List.assoc "LRU+pow2 SLO-aware" top).Metrics.goodput_rps
        (List.assoc lru_bucketed_label top).Metrics.goodput_rps
        top_rate;
    ]
  in
  {
    Exp.tables = [ table ];
    summary;
  }

let exp =
  {
    Exp.id = "serving";
    title = "SLO-aware dynamic-shape serving runtime (extension)";
    paper_claim =
      "Section 7: microsecond-scale polymerization is compatible with in-flight batching; serving must amortize per-shape compilation across the live request stream";
    run;
  }
