type policy =
  | Greedy of { max_batch : int }
  | Timeout of {
      max_batch : int;
      window : float;
    }
  | Slo_aware of { max_batch : int }

let max_batch = function
  | Greedy { max_batch } | Timeout { max_batch; _ } | Slo_aware { max_batch } ->
    max_batch

let name = function
  | Greedy _ -> "greedy"
  | Timeout { window; _ } -> Printf.sprintf "timeout-%gms" (window *. 1e3)
  | Slo_aware _ -> "slo-aware"

let validate p =
  if max_batch p < 1 then invalid_arg "Batcher: max_batch must be >= 1";
  match p with
  | Timeout { window; _ } when not (window >= 0.) ->
    invalid_arg "Batcher: timeout window must be >= 0"
  | _ -> ()

module Heap = Mikpoly_util.Heap

(* A waiting request. Under [Slo_aware] it sits in both heaps of its
   queue: taking it through one clears [queued], and the other discards
   it when it reaches the top. *)
type entry = {
  req : Request.t;
  mutable queued : bool;
}

(* Earliest deadline first, ties by id: the deadline heap's order. *)
let compare_deadline (a : Request.t) (b : Request.t) =
  match Float.compare (Request.deadline a) (Request.deadline b) with
  | 0 -> Int.compare a.id b.id
  | c -> c

(* The order a policy admits in. *)
let admits_by_deadline = function
  | Slo_aware _ -> true
  | Greedy _ | Timeout _ -> false

type decision = {
  admitted : Request.t list;
  dropped : Request.t list;
}

let every _ = true

(* Each policy's rule, stated once for both entry points. [take n ok]
   removes at most [n] requests from the front of the policy's order
   while [ok] holds for the front, and returns them in that order;
   [length] requests are waiting. *)
let decide policy ~now ~in_flight ~length take =
  let cap = max 0 (max_batch policy - in_flight) in
  match policy with
  | Greedy _ -> { admitted = take cap every; dropped = [] }
  | Timeout { window; max_batch } ->
    (* A queue that alone fills the batch has no reason to wait longer.
       Otherwise only requests whose window has passed are admitted, and
       those are the oldest: [arrival +. window] is monotone in a finite
       arrival. [now >= arrival +. window] (not [now -. arrival >=
       window]): the event loop sleeps until exactly [arrival +. window],
       and the subtracted form can round below [window] at that instant,
       which would admit nothing and livelock the clock. *)
    let aged =
      if length + in_flight >= max_batch then every
      else fun (r : Request.t) -> now >= r.arrival +. window
    in
    { admitted = take cap aged; dropped = [] }
  | Slo_aware _ ->
    (* Every request past its deadline is shed, whatever [cap]: those
       lead the deadline order. They are reported in arrival order. *)
    let dropped = take max_int (fun r -> not (now < Request.deadline r)) in
    let admitted = take cap every in
    { admitted; dropped = List.sort Request.compare_arrival dropped }

type queue = {
  policy : policy;
  by_arrival : entry Heap.t;  (** (arrival, id) *)
  by_deadline : entry Heap.t;  (** (deadline, id); empty unless [Slo_aware] *)
  mutable length : int;
}

let queue policy =
  validate policy;
  {
    policy;
    by_arrival = Heap.create ();
    by_deadline = Heap.create ();
    length = 0;
  }

let length q = q.length

(* Discard from the top of [h] the entries the other heap took; then [h]
   is empty or its top is still queued. *)
let rec discard_taken h =
  if (not (Heap.is_empty h)) && not (Heap.top h).queued then begin
    ignore (Heap.pop h);
    discard_taken h
  end

let push q (req : Request.t) =
  let e = { req; queued = true } in
  if admits_by_deadline q.policy then begin
    (* Requests admitted or shed through the deadline heap leave the
       arrival heap only from its top. Discarding them there on every
       push bounds that heap by the requests pushed since the oldest one
       still queued. *)
    discard_taken q.by_arrival;
    Heap.push q.by_deadline (Request.deadline req) req.id e
  end;
  Heap.push q.by_arrival req.arrival req.id e;
  q.length <- q.length + 1

(* Take at most [n] requests from the front of [h], in its order, while
   [ok] holds for the front; [acc] holds those taken, last first. *)
let rec take q h n ok acc =
  discard_taken h;
  if n > 0 && (not (Heap.is_empty h)) && ok (Heap.top h).req then begin
    let e = Heap.pop h in
    e.queued <- false;
    q.length <- q.length - 1;
    take q h (n - 1) ok (e.req :: acc)
  end
  else List.rev acc

let pop_oldest q =
  match take q q.by_arrival 1 every [] with [ r ] -> Some r | _ -> None

let admit q ~now ~in_flight =
  let h = if admits_by_deadline q.policy then q.by_deadline else q.by_arrival in
  decide q.policy ~now ~in_flight ~length:q.length (fun n ok ->
      take q h n ok [])

(* [take] on a sorted list: the front of [!rest]. *)
let rec take_list rest n ok acc =
  match !rest with
  | r :: tl when n > 0 && ok r ->
    rest := tl;
    take_list rest (n - 1) ok (r :: acc)
  | _ -> List.rev acc

(* A short list is cheaper to sort once in the policy's order than to
   push through the heaps. *)
let admit_list policy ~now ~in_flight reqs =
  validate policy;
  let rest =
    ref
      (List.sort
         (if admits_by_deadline policy then compare_deadline
          else Request.compare_arrival)
         reqs)
  in
  let d =
    decide policy ~now ~in_flight ~length:(List.length reqs) (fun n ok ->
        take_list rest n ok [])
  in
  (d, !rest)

let next_eligible q =
  discard_taken q.by_arrival;
  if Heap.is_empty q.by_arrival then None
  else
    let arrival = (Heap.top q.by_arrival).req.arrival in
    match q.policy with
    | Greedy _ | Slo_aware _ -> Some arrival
    | Timeout { window; max_batch } ->
      if q.length >= max_batch then Some arrival else Some (arrival +. window)
