module Request = Mikpoly_serve.Request

(* Start-time fair queueing across tenants. Each tenant owns a FIFO
   lane; a request reaching the head of its lane is stamped with a
   frozen finish tag [max(lane_finish, vtime) + cost/weight], and
   selection takes the eligible lane head with the smallest tag (ties
   to the lowest tenant id). Virtual time advances to the start tag of
   each grant, so an idle tenant re-enters at the current virtual time
   instead of burning credit it never used — the classic SFQ rule that
   yields the starvation bound: over any backlogged interval a tenant
   with weight w receives at least w/W of the granted cost, within one
   maximal request of exact. Freezing the tag at head-arrival (rather
   than recomputing it per selection) is what makes the bound real: a
   tag that chased the advancing virtual time would keep a light lane
   forever behind a backlogged heavy one. *)

type lane = {
  l_tenant : Tenant.t;
  mutable l_front : Tenant.tagged list;
  mutable l_back : Tenant.tagged list;  (* reversed tail, amortized *)
  mutable l_finish : float;
  mutable l_head_tag : float option;
      (* candidate finish tag of the current head, frozen when the
         request reached the head of its lane — recomputing it against
         the advancing virtual time would let a backlogged heavy lane
         outrun a waiting light one forever, breaking the bound *)
  mutable l_grants : int;
  mutable l_cost : float;
}

(* The oldest-request index. Grants only ever take a lane head, so each
   lane's requests of one signature form a sub-queue with the lane's
   three operations: push at the tail, push at the head, pop the head.
   Its candidates are the requests with no older request queued behind
   them in that sub-queue ("older" is smaller (arrival, id)), kept in
   lane order, so ascending: the front is the sub-queue's oldest. A
   tail push drops the candidates newer than the pushed request; a head
   push is a candidate only if it is no newer than the front; a granted
   head is either the front or no candidate at all. Every step is O(1)
   amortized and allocates nothing per request: a deep queue that is
   in arrival order keeps every request a candidate, one array slot
   each. *)
let compare_key (a : Tenant.tagged) (b : Tenant.tagged) =
  Request.compare_arrival a.Tenant.req b.Tenant.req

(* A ring buffer of candidates; its capacity is a power of two. *)
type cands = {
  mutable c_buf : Tenant.tagged array;
  mutable c_first : int;
  mutable c_len : int;
}

(* One signature's candidates per lane that queues it, and the oldest
   of their fronts. *)
type group = {
  mutable g_lanes : (lane * cands) list;
  mutable g_oldest : Tenant.tagged;
}

type t = {
  lanes : (int, lane) Hashtbl.t;
  mutable order : int list;  (* tenant ids ascending: deterministic scans *)
  mutable vtime : float;
  mutable size : int;
  signature : Tenant.tagged -> int;
  groups : (int, group) Hashtbl.t;  (* signatures with a queued request *)
}

type lane_stats = {
  s_tenant : Tenant.t;
  s_queued : int;
  s_grants : int;
  s_cost : float;
}

let create ~signature =
  {
    lanes = Hashtbl.create 8;
    order = [];
    vtime = 0.;
    size = 0;
    signature;
    groups = Hashtbl.create 16;
  }

let lane t (tenant : Tenant.t) =
  match Hashtbl.find_opt t.lanes tenant.Tenant.tenant_id with
  | Some l -> l
  | None ->
    let l =
      {
        l_tenant = tenant;
        l_front = [];
        l_back = [];
        l_finish = 0.;
        l_head_tag = None;
        l_grants = 0;
        l_cost = 0.;
      }
    in
    Hashtbl.replace t.lanes tenant.Tenant.tenant_id l;
    t.order <- List.sort compare (tenant.Tenant.tenant_id :: t.order);
    l

let cost (tg : Tenant.tagged) = float_of_int (Request.tokens tg.Tenant.req)

(* Freeze the candidate finish tag of [tg] as it becomes the lane head:
   start at max(lane finish, current virtual time), finish a
   weight-scaled cost later. Frozen, not recomputed per selection — the
   tag must not chase the advancing virtual time. *)
let stamp t l tg =
  l.l_head_tag <-
    Some
      (Float.max l.l_finish t.vtime
      +. (cost tg /. float_of_int (Tenant.weight l.l_tenant.Tenant.tier)))

let slot c i = (c.c_first + i) land (Array.length c.c_buf - 1)

let front c = c.c_buf.(c.c_first)

let back c = c.c_buf.(slot c (c.c_len - 1))

let make_room c =
  let cap = Array.length c.c_buf in
  if c.c_len = cap then begin
    let buf = Array.make (2 * cap) (front c) in
    for i = 0 to c.c_len - 1 do
      buf.(i) <- c.c_buf.(slot c i)
    done;
    c.c_buf <- buf;
    c.c_first <- 0
  end

(* The candidates of [tg]'s signature in lane [l], created empty on
   first use. *)
let cands_of t l tg =
  let s = t.signature tg in
  let g =
    match Hashtbl.find t.groups s with
    | g -> g
    | exception Not_found ->
      let g = { g_lanes = []; g_oldest = tg } in
      Hashtbl.replace t.groups s g;
      g
  in
  match List.assq l g.g_lanes with
  | c -> (s, g, c)
  | exception Not_found ->
    let c = { c_buf = Array.make 8 tg; c_first = 0; c_len = 0 } in
    g.g_lanes <- (l, c) :: g.g_lanes;
    (s, g, c)

(* Re-read a group's oldest after candidates [c] changed; a signature
   with no queued request leaves the index. *)
let refresh t s g c =
  if c.c_len = 0 then g.g_lanes <- List.filter (fun (_, c') -> c' != c) g.g_lanes;
  match g.g_lanes with
  | [] -> Hashtbl.remove t.groups s
  | (_, first) :: rest ->
    g.g_oldest <-
      List.fold_left
        (fun acc (_, c) -> if compare_key (front c) acc < 0 then front c else acc)
        (front first) rest

let index_push t l tg =
  let s, g, c = cands_of t l tg in
  while c.c_len > 0 && compare_key (back c) tg > 0 do
    c.c_len <- c.c_len - 1
  done;
  make_room c;
  c.c_buf.(slot c c.c_len) <- tg;
  c.c_len <- c.c_len + 1;
  refresh t s g c

let index_push_front t l tg =
  let s, g, c = cands_of t l tg in
  if c.c_len = 0 || compare_key tg (front c) <= 0 then begin
    make_room c;
    c.c_first <- slot c (-1);
    c.c_buf.(c.c_first) <- tg;
    c.c_len <- c.c_len + 1
  end;
  refresh t s g c

let index_grant t l tg =
  let s, g, c = cands_of t l tg in
  if c.c_len > 0 && front c == tg then begin
    c.c_first <- slot c 1;
    c.c_len <- c.c_len - 1
  end;
  refresh t s g c

let push t (tg : Tenant.tagged) =
  let l = lane t tg.Tenant.tenant in
  let was_empty = l.l_front = [] && l.l_back = [] in
  l.l_back <- tg :: l.l_back;
  t.size <- t.size + 1;
  index_push t l tg;
  if was_empty then stamp t l tg

let push_front t (tg : Tenant.tagged) =
  let l = lane t tg.Tenant.tenant in
  l.l_front <- tg :: l.l_front;
  t.size <- t.size + 1;
  index_push_front t l tg;
  stamp t l tg

let length t = t.size

let is_empty t = t.size = 0

let head l =
  (match l.l_front with
  | [] ->
    l.l_front <- List.rev l.l_back;
    l.l_back <- []
  | _ -> ());
  match l.l_front with [] -> None | tg :: _ -> Some tg

let drop_head l =
  match l.l_front with
  | _ :: rest -> l.l_front <- rest
  | [] -> assert false

let iter_lanes t f =
  List.iter (fun id -> f (Hashtbl.find t.lanes id)) t.order

let fold t f init =
  (* [l_back] is the lane's tail reversed: apply [f] on the way back up
     the recursion, so nothing is copied. *)
  let rec back acc = function [] -> acc | tg :: rest -> f (back acc rest) tg in
  List.fold_left
    (fun acc id ->
      let l = Hashtbl.find t.lanes id in
      back (List.fold_left f acc l.l_front) l.l_back)
    init t.order

let fold_oldest t f init =
  Hashtbl.fold
    (fun s g acc ->
      let r = g.g_oldest.Tenant.req in
      f s r.Request.arrival r.Request.id acc)
    t.groups init

(* WFQ-first lane whose head satisfies [admissible]: minimum frozen
   finish tag, ties to the lowest tenant id (the [order] scan gives the
   tie-break for free). *)
let select t ~admissible =
  let best = ref None in
  iter_lanes t (fun l ->
      match head l with
      | Some tg when admissible tg -> (
        let f =
          match l.l_head_tag with
          | Some f -> f
          | None ->
            stamp t l tg;
            Option.get l.l_head_tag
        in
        match !best with
        | Some (bf, _, _) when bf <= f -> ()
        | _ -> best := Some (f, l, tg))
      | _ -> ());
  !best

let grant t l tg =
  let w = float_of_int (Tenant.weight l.l_tenant.Tenant.tier) in
  let finish =
    match l.l_head_tag with
    | Some f -> f
    | None -> Float.max l.l_finish t.vtime +. (cost tg /. w)
  in
  (* Virtual time advances to the grant's start tag, monotonically — a
     tag frozen before other grants may start in the past. *)
  t.vtime <- Float.max t.vtime (finish -. (cost tg /. w));
  l.l_finish <- finish;
  l.l_grants <- l.l_grants + 1;
  l.l_cost <- l.l_cost +. cost tg;
  drop_head l;
  t.size <- t.size - 1;
  index_grant t l tg;
  l.l_head_tag <- None;
  match head l with Some next -> stamp t l next | None -> ()

let take t ~max ~eligible ?(first = fun _ -> true) ?(group = fun _ _ -> true)
    () =
  if max <= 0 then []
  else
    match select t ~admissible:(fun tg -> eligible tg && first tg) with
    | None -> []
    | Some (_, l0, tg0) ->
      grant t l0 tg0;
      let taken = ref [ tg0 ] in
      let remaining = ref (max - 1) in
      let exhausted = ref false in
      while !remaining > 0 && not !exhausted do
        (* Coalescing preference: requests matching the group leader may
           jump ahead of WFQ order; when none match, fall back to plain
           WFQ order so the offer stays work-conserving. Either way the
           grant charges the request's own tenant, so jumping ahead
           never steals another tenant's share. *)
        let next =
          match
            select t ~admissible:(fun tg -> eligible tg && group tg0 tg)
          with
          | Some _ as s -> s
          | None -> select t ~admissible:eligible
        in
        match next with
        | None -> exhausted := true
        | Some (_, l, tg) ->
          grant t l tg;
          taken := tg :: !taken;
          decr remaining
      done;
      List.rev !taken

let stats t =
  let acc = ref [] in
  iter_lanes t (fun l ->
      acc :=
        {
          s_tenant = l.l_tenant;
          s_queued = List.length l.l_front + List.length l.l_back;
          s_grants = l.l_grants;
          s_cost = l.l_cost;
        }
        :: !acc);
  List.rev !acc
