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

type t = {
  lanes : (int, lane) Hashtbl.t;
  mutable order : int list;  (* tenant ids ascending: deterministic scans *)
  mutable vtime : float;
  mutable size : int;
}

type lane_stats = {
  s_tenant : Tenant.t;
  s_queued : int;
  s_grants : int;
  s_cost : float;
}

let create () = { lanes = Hashtbl.create 8; order = []; vtime = 0.; size = 0 }

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

let push t (tg : Tenant.tagged) =
  let l = lane t tg.Tenant.tenant in
  let was_empty = l.l_front = [] && l.l_back = [] in
  l.l_back <- tg :: l.l_back;
  t.size <- t.size + 1;
  if was_empty then stamp t l tg

let push_front t (tg : Tenant.tagged) =
  let l = lane t tg.Tenant.tenant in
  l.l_front <- tg :: l.l_front;
  t.size <- t.size + 1;
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

let fold_heads t f init =
  List.fold_left
    (fun acc id ->
      match head (Hashtbl.find t.lanes id) with Some tg -> f acc tg | None -> acc)
    init t.order

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
