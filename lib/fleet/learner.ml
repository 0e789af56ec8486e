(* Decayed histogram of observed shape signatures, per tenant. Mass
   decays exponentially with the event clock (half-life semantics), so
   the top-K reflects the *live* shape distribution: a tenant that
   stopped sending 4k-token prompts an hour ago stops pinning that
   bucket's programs in the warm store. *)

type cell = {
  mutable mass : float;
  mutable last : float;
}

(* Event-clock seconds over which a cell's mass halves. *)
let half_life = 1.0

type t = { cells : (int * int, cell) Hashtbl.t (* (tenant_id, signature) *) }

let create () = { cells = Hashtbl.create 64 }

let decay cell ~now =
  if now > cell.last then begin
    cell.mass <- cell.mass *. (0.5 ** ((now -. cell.last) /. half_life));
    cell.last <- now
  end

let observe t ~now ~tenant ~signature ~weight =
  if weight < 0. then invalid_arg "Learner.observe: negative weight";
  let key = (tenant, signature) in
  let cell =
    match Hashtbl.find_opt t.cells key with
    | Some c -> c
    | None ->
      let c = { mass = 0.; last = now } in
      Hashtbl.replace t.cells key c;
      c
  in
  decay cell ~now;
  cell.mass <- cell.mass +. weight

(* Merge across tenants: decayed mass summed per signature, ranked
   descending with ties to the smaller signature — hash order never
   leaks into the ranking. *)
let top_k t ~now ~k =
  if k < 0 then invalid_arg "Learner.top_k: negative k";
  let merged = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (_, signature) cell ->
      decay cell ~now;
      let prev =
        Option.value (Hashtbl.find_opt merged signature) ~default:0.
      in
      Hashtbl.replace merged signature (prev +. cell.mass))
    t.cells;
  Hashtbl.fold (fun signature mass acc -> (signature, mass) :: acc) merged []
  |> List.sort (fun (s1, m1) (s2, m2) ->
         match compare m2 m1 with 0 -> compare s1 s2 | c -> c)
  |> List.filteri (fun i _ -> i < k)

(* Decayed mass of one signature summed across tenants — the admission
   weight the warm store's mass-aware cache consults. Pure with respect
   to ranking: it decays cells exactly like [top_k] does, so reading a
   mass never perturbs subsequent rankings. *)
let mass t ~now ~signature =
  Hashtbl.fold
    (fun (_, s) cell acc ->
      if s = signature then begin
        decay cell ~now;
        acc +. cell.mass
      end
      else acc)
    t.cells 0.

let signatures t =
  Hashtbl.fold (fun (_, s) _ acc -> s :: acc) t.cells []
  |> List.sort_uniq compare
