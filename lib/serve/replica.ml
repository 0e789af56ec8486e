type completed = {
  request : Request.t;
  first_token : float;
  finish : float;
  replica : int;
}

type 'a active = {
  item : 'a;
  req : Request.t;
  mutable remaining : int;
  mutable kv : int;
  mutable prefill : int;
  mutable first_token : float;
}

type 'a slot = {
  index : int;
  mutable clock : float;
  mutable down_until : float;
  mutable step_no : int;
  mutable cache : unit Shape_cache.t;
  mutable act : 'a active list;
}

let slot ~index ~capacity =
  {
    index;
    clock = 0.;
    down_until = 0.;
    step_no = 0;
    cache = Shape_cache.create ~capacity;
    act = [];
  }

let admit s ~item = function
  | [] -> ()
  | reqs ->
    s.act <-
      s.act
      @ List.map
          (fun (req : Request.t) ->
            {
              item = item req;
              req;
              remaining = req.Request.output_len;
              kv = 0;
              prefill = req.Request.prompt_len;
              first_token = nan;
            })
          reqs

let ready_at s earliest =
  let base = Float.max s.clock s.down_until in
  if s.act <> [] then Some base
  else Option.map (Float.max base) (earliest ())

(* Always on, like the loops' own counters: a nudge is a wake-up that
   admitted and shed nothing. *)
let m_idle_nudges = Mikpoly_telemetry.Metrics.counter "replica.idle_nudges"

let idle s ~now ~shed =
  if shed then s.clock <- now
  else begin
    Mikpoly_telemetry.Metrics.incr m_idle_nudges;
    s.clock <- now +. 1e-6
  end

type counters = {
  mutable steps : int;
  mutable makespan : float;
  mutable stall : float;
  mutable actual_tokens : int;
  mutable padded_tokens : int;
  mutable queue_depth_sum : int;
  mutable queue_samples : int;
  mutable crashes : int;
  mutable injected : int;
  mutable requeues : int;
}

let counters () =
  {
    steps = 0;
    makespan = 0.;
    stall = 0.;
    actual_tokens = 0;
    padded_tokens = 0;
    queue_depth_sum = 0;
    queue_samples = 0;
    crashes = 0;
    injected = 0;
    requeues = 0;
  }

type batch = {
  kv_tokens : int;
  btokens : int;
  shapes : (Shape_cache.key * int) list;
}

(* Token work (each prefilling member's prompt, 1 per decoder) and KV
   length of a batch, in one pass. *)
let rec sizes tokens kv = function
  | [] -> (tokens, kv)
  | a :: rest ->
    sizes (tokens + if a.prefill > 0 then a.prefill else 1) (kv + a.kv) rest

let batch c s ~queued ~bucketing ~coalesce ~step_shapes =
  c.queue_samples <- c.queue_samples + 1;
  c.queue_depth_sum <- c.queue_depth_sum + queued;
  let bucket = Bucketing.bucket bucketing in
  let tokens, kv_tokens = sizes 0 0 s.act in
  let btokens =
    if coalesce then
      List.fold_left
        (fun acc a -> acc + if a.prefill > 0 then bucket a.prefill else 1)
        0 s.act
    else bucket tokens
  in
  c.actual_tokens <- c.actual_tokens + tokens;
  c.padded_tokens <- c.padded_tokens + btokens;
  (* Coalesced batches launch the bucket's polymerized program per
     member — k same-signature prefills reuse one compiled program
     whatever k is (the runtime glues k micro-kernel instances), so the
     compile key is the bucket, never the k x bucket product. *)
  let shapes =
    if coalesce then begin
      let prefills = List.filter (fun a -> a.prefill > 0) s.act in
      let decodes = List.length s.act - List.length prefills in
      let buckets =
        List.sort_uniq compare (List.map (fun a -> bucket a.prefill) prefills)
      in
      List.concat_map (fun b -> step_shapes ~tokens:b) buckets
      @ if decodes > 0 then step_shapes ~tokens:(bucket decodes) else []
    end
    else step_shapes ~tokens:btokens
  in
  { kv_tokens; btokens; shapes }

(* One probe covers every launch left while the shape is resident; a
   miss walks the rest of the ladder for one launch and probes again,
   so a capacity-0 cache still pays the ladder on every launch. [stall]
   is the step's stall so far; no closure or reference is built, so a
   step whose shapes all hit allocates only the probes' results. *)
let rec launch s ~now ~compile ~store ~on_store_hit stall shape left =
  if left <= 0 then stall
  else
    match Shape_cache.find_n s.cache shape left with
    | Some () -> stall
    | None ->
      let ready =
        match store with
        | Some st -> (
          match Shape_cache.find st shape with
          | Some at -> at <= now
          | None -> false)
        | None -> false
      in
      let stall =
        if ready then begin
          on_store_hit ();
          stall
        end
        else begin
          let stall = stall +. compile shape in
          Option.iter (fun st -> Shape_cache.add st shape (now +. stall)) store;
          stall
        end
      in
      Shape_cache.add s.cache shape ();
      launch s ~now ~compile ~store ~on_store_hit stall shape (left - 1)

let rec lookup_from s ~now ~compile ~store ~on_store_hit stall = function
  | [] -> stall
  | (shape, launches) :: rest ->
    lookup_from s ~now ~compile ~store ~on_store_hit
      (launch s ~now ~compile ~store ~on_store_hit stall shape launches)
      rest

let lookup s ~now ~compile ~store ~on_store_hit shapes =
  lookup_from s ~now ~compile ~store ~on_store_hit 0. shapes

let next_step s =
  let i = s.step_no in
  s.step_no <- i + 1;
  i

(* [List.filter keep l], with [keep] run on the members in order, but
   sharing the tail of [l] after the last member dropped: a step that
   completes nobody, as most do, allocates nothing. *)
let rec filter_shared keep = function
  | [] -> []
  | a :: rest as l ->
    let stays = keep a in
    let rest' = filter_shared keep rest in
    if not stays then rest' else if rest' == rest then l else a :: rest'

let advance s ~fin ~on_done =
  s.act <-
    filter_shared
      (fun a ->
        if a.prefill > 0 then begin
          a.kv <- a.prefill;
          a.prefill <- 0;
          true
        end
        else begin
          a.kv <- a.kv + 1;
          a.remaining <- a.remaining - 1;
          if Float.is_nan a.first_token then a.first_token <- fin;
          if a.remaining = 0 then begin
            on_done a
              {
                request = a.req;
                first_token = a.first_token;
                finish = fin;
                replica = s.index;
              };
            false
          end
          else true
        end)
      s.act

let close_step c s ~clock =
  s.clock <- clock;
  c.makespan <- Float.max c.makespan clock;
  c.steps <- c.steps + 1

let evict s ~requeue =
  let n = List.length s.act in
  List.iter (fun a -> requeue a.item) (List.rev s.act);
  s.act <- [];
  n

let retire s =
  let old = s.cache in
  s.cache <- Shape_cache.create ~capacity:(Shape_cache.capacity old);
  Shape_cache.stats old

let crash c s ~now ~restart_delay ~requeue =
  c.crashes <- c.crashes + 1;
  c.injected <- c.injected + 1;
  c.requeues <- c.requeues + evict s ~requeue;
  let retired = retire s in
  s.down_until <- now +. restart_delay;
  s.clock <- Float.max s.clock s.down_until;
  c.makespan <- Float.max c.makespan s.down_until;
  retired

type 'e next = { mutable best : (float * int * 'e) option }

let consider n time prio ev =
  match n.best with
  | Some (bt, bp, _) when bt < time || (bt = time && bp <= prio) -> ()
  | _ -> n.best <- Some (time, prio, ev)

let rec drive ~candidates ~fire =
  let n = { best = None } in
  candidates n;
  match n.best with
  | None -> ()
  | Some (t, _, ev) ->
    fire t ev;
    drive ~candidates ~fire
