(* The shape cache [Mikpoly_serve.Shape_cache] replaced, on the
   polymorphic [Hashtbl] and [caml_hash], kept as a reference model:
   [test_serve]'s differential property runs random operation sequences
   on both and requires the same finds, stats, LRU order and rejections
   after every operation. *)

type key = int * int * int

type 'a entry = {
  value : 'a;
  mutable last_use : int;
}

type 'a t = {
  cache_capacity : int;
  weight : (key -> float) option;
  table : (key, 'a entry) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable rejections : int;
}

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  size : int;
  capacity : int;
}

let make ?weight capacity =
  if capacity < 0 then invalid_arg "Shape_cache.create: negative capacity";
  {
    cache_capacity = capacity;
    weight;
    table = Hashtbl.create (max 16 capacity);
    tick = 0;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    rejections = 0;
  }

let create ~capacity = make capacity

let create_weighted ~weight ~capacity = make ~weight capacity

let capacity (t : _ t) = t.cache_capacity

let size (t : _ t) = Hashtbl.length t.table

let mem (t : _ t) key = Hashtbl.mem t.table key

(* [n] finds of one key in one probe: a resident key stays resident
   across them, so each is a hit and the last leaves its tick. *)
let find_n (t : _ t) key n =
  if n < 1 then invalid_arg "Shape_cache.find_n: n must be positive";
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.tick <- t.tick + n;
    e.last_use <- t.tick;
    t.hits <- t.hits + n;
    Some e.value
  | None ->
    t.misses <- t.misses + 1;
    None

let find t key = find_n t key 1

let evict_lru (t : _ t) =
  (* Ticks are unique, so the minimum is unambiguous regardless of the
     hash table's iteration order. *)
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, best) when best <= e.last_use -> acc
        | _ -> Some (k, e.last_use))
      t.table None
  in
  match victim with
  | Some (k, _) ->
    Hashtbl.remove t.table k;
    t.evictions <- t.evictions + 1
  | None -> ()

(* Mass-aware admission: the victim is the lowest-weight resident (ties
   broken by recency, oldest first — ticks are unique so the minimum is
   unambiguous), and an incoming key strictly lighter than that victim is
   refused outright. A cold-bucket scan therefore churns only among the
   cold residents and can never push out a hot bucket, which plain LRU
   does on any scan longer than the capacity. Returns [true] when the
   caller may insert. *)
let admit_weighted (t : _ t) w key =
  let incoming = w key in
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        let cand = (w k, e.last_use) in
        match acc with
        | Some (_, best) when best <= cand -> acc
        | _ -> Some (k, cand))
      t.table None
  in
  match victim with
  | None -> true
  | Some (k, (victim_weight, _)) ->
    if incoming < victim_weight then begin
      t.rejections <- t.rejections + 1;
      false
    end
    else begin
      Hashtbl.remove t.table k;
      t.evictions <- t.evictions + 1;
      true
    end

let add (t : _ t) key value =
  if t.cache_capacity > 0 then begin
    let admitted =
      match Hashtbl.find_opt t.table key with
      | Some _ ->
        (* Refresh of a resident: no admission decision to make. *)
        Hashtbl.remove t.table key;
        true
      | None ->
        let ok =
          if Hashtbl.length t.table < t.cache_capacity then true
          else
            match t.weight with
            | Some w -> admit_weighted t w key
            | None ->
              evict_lru t;
              true
        in
        if ok then t.insertions <- t.insertions + 1;
        ok
    in
    if admitted then begin
      t.tick <- t.tick + 1;
      Hashtbl.replace t.table key { value; last_use = t.tick }
    end
  end

let rejections (t : _ t) = t.rejections

let stats (t : _ t) =
  {
    hits = t.hits;
    misses = t.misses;
    insertions = t.insertions;
    evictions = t.evictions;
    size = Hashtbl.length t.table;
    capacity = t.cache_capacity;
  }

let hit_rate s =
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0. else float_of_int s.hits /. float_of_int lookups

let total stats_list =
  List.fold_left
    (fun acc s ->
      {
        hits = acc.hits + s.hits;
        misses = acc.misses + s.misses;
        insertions = acc.insertions + s.insertions;
        evictions = acc.evictions + s.evictions;
        size = acc.size + s.size;
        capacity = acc.capacity + s.capacity;
      })
    { hits = 0; misses = 0; insertions = 0; evictions = 0; size = 0; capacity = 0 }
    stats_list

let lru_order (t : _ t) =
  Hashtbl.fold (fun k e acc -> (e.last_use, k) :: acc) t.table []
  |> List.sort compare |> List.map snd
