(* Domain-safety: counters and gauges are atomics (an increment stays a
   single lock-free RMW, cheap enough for hot paths shared by pool
   workers); a histogram observation is three of them (its bucket, its
   count, and a compare-and-set on its sum), so it never takes a lock —
   every online search observes two, and a search takes a few
   microseconds. A snapshot reads each histogram field atomically, not
   all fields at once; registration and snapshots take the registry
   lock. *)
type counter = int Atomic.t

type gauge = float Atomic.t

type histogram = {
  buckets : float array;
  counts : int Atomic.t array;
  sum : float Atomic.t;
  count : int Atomic.t;
}

type cell = C of counter | G of gauge | H of histogram

type t = {
  rlock : Mutex.t;
  tbl : (string, cell) Hashtbl.t;
  mutable order : string list;  (** reverse registration order *)
}

let create () = { rlock = Mutex.create (); tbl = Hashtbl.create 32; order = [] }

let global = create ()

let registry = function Some r -> r | None -> global

let kind_error name = invalid_arg ("Metrics: " ^ name ^ " registered as a different kind")

(* Get-or-create under the registry lock so two domains asking for the
   same name concurrently always share one cell. *)
let intern r name make classify =
  Mutex.lock r.rlock;
  let cell =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock r.rlock)
      (fun () ->
        match Hashtbl.find_opt r.tbl name with
        | Some c -> c
        | None ->
          let c = make () in
          Hashtbl.add r.tbl name c;
          r.order <- name :: r.order;
          c)
  in
  classify cell

let counter ?registry:reg name =
  intern (registry reg) name
    (fun () -> C (Atomic.make 0))
    (function C c -> c | _ -> kind_error name)

let incr c = Atomic.incr c

let add c n = ignore (Atomic.fetch_and_add c n)

let counter_value c = Atomic.get c

let gauge ?registry:reg name =
  intern (registry reg) name
    (fun () -> G (Atomic.make 0.))
    (function G g -> g | _ -> kind_error name)

let set g v = Atomic.set g v

(* Lock-free add for gauges tracking a level (queue depth, live
   replicas): CAS loop so concurrent deltas never lose an update. *)
let gauge_add g d =
  let rec retry () =
    let cur = Atomic.get g in
    if not (Atomic.compare_and_set g cur (cur +. d)) then retry ()
  in
  retry ()

let gauge_value g = Atomic.get g

let default_buckets = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10.; 100. |]

let check_buckets b =
  if Array.length b = 0 then invalid_arg "Metrics.histogram: empty buckets";
  for i = 1 to Array.length b - 1 do
    if not (b.(i) > b.(i - 1)) then
      invalid_arg "Metrics.histogram: buckets must be strictly increasing"
  done

let histogram ?registry:reg ?(buckets = default_buckets) name =
  intern (registry reg) name
    (fun () ->
      check_buckets buckets;
      H
        {
          buckets = Array.copy buckets;
          counts =
            Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
          sum = Atomic.make 0.;
          count = Atomic.make 0;
        })
    (function H h -> h | _ -> kind_error name)

let observe h v =
  let n = Array.length h.buckets in
  let i = ref 0 in
  while !i < n && not (v <= h.buckets.(!i)) do
    i := !i + 1
  done;
  Atomic.incr h.counts.(!i);
  Atomic.incr h.count;
  gauge_add h.sum v

type metric =
  | Counter of { name : string; value : int }
  | Gauge of { name : string; value : float }
  | Histogram of {
      name : string;
      buckets : float array;
      counts : int array;
      sum : float;
      count : int;
    }

type snapshot = metric list

let metric_name = function
  | Counter { name; _ } | Gauge { name; _ } | Histogram { name; _ } -> name

let snapshot ?registry:reg () =
  let r = registry reg in
  Mutex.lock r.rlock;
  let snap =
    List.rev_map
      (fun name ->
        match Hashtbl.find r.tbl name with
        | C c -> Counter { name; value = Atomic.get c }
        | G g -> Gauge { name; value = Atomic.get g }
        | H h ->
          Histogram
            {
              name;
              buckets = Array.copy h.buckets;
              counts = Array.map Atomic.get h.counts;
              sum = Atomic.get h.sum;
              count = Atomic.get h.count;
            })
      r.order
  in
  Mutex.unlock r.rlock;
  snap

let find snap name = List.find_opt (fun m -> metric_name m = name) snap

let diff ~before ~after =
  List.filter_map
    (fun m ->
      match (m, find before (metric_name m)) with
      | m, None -> Some m
      | Counter { name; value }, Some (Counter b) ->
        Some (Counter { name; value = value - b.value })
      | (Gauge _ as g), Some (Gauge _) -> Some g
      | Histogram h, Some (Histogram b)
        when h.buckets = b.buckets ->
        Some
          (Histogram
             {
               h with
               counts = Array.mapi (fun i c -> c - b.counts.(i)) h.counts;
               sum = h.sum -. b.sum;
               count = h.count - b.count;
             })
      | m, Some _ -> Some m)
    after

let reset ?registry:reg () =
  let r = registry reg in
  Mutex.lock r.rlock;
  Hashtbl.iter
    (fun _ cell ->
      match cell with
      | C c -> Atomic.set c 0
      | G g -> Atomic.set g 0.
      | H h ->
        Array.iter (fun c -> Atomic.set c 0) h.counts;
        Atomic.set h.sum 0.;
        Atomic.set h.count 0)
    r.tbl;
  Mutex.unlock r.rlock
