let cores = Domain.recommended_domain_count ()

let default = Atomic.make 1

let default_jobs () = Atomic.get default

let recommended_jobs () = max 1 (min 8 cores)

let set_default_jobs n =
  Atomic.set default (if n <= 0 then recommended_jobs () else n)

let effective_jobs j =
  max 1 (min cores (if j <= 0 then default_jobs () else j))

(* One map's work: [run c] computes chunk [c]. Every participant claims
   chunks from [cursor]; once a body has failed, claimed chunks are
   skipped and [failure] keeps the first exception. *)
type region = {
  run : int -> unit;
  chunks : int;
  cursor : int Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
}

let drain r =
  let rec claim () =
    let c = Atomic.fetch_and_add r.cursor 1 in
    if c < r.chunks then begin
      (if Option.is_none (Atomic.get r.failure) then
         try r.run c
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set r.failure None (Some (e, bt))));
      claim ()
    end
  in
  claim ()

(* The persistent workers: [size - 1] spawned domains that, with the
   caller, make [size] participants per region. Spawning and joining
   domains costs about ten times a pooled region, so they outlive maps. *)
type crew = {
  size : int;
  lock : Mutex.t;
  signal : Condition.t;
  mutable job : region option;
  mutable epoch : int;  (** bumped once per region *)
  mutable active : int;  (** spawned workers still in the region *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let rec work crew seen =
  Mutex.lock crew.lock;
  while (not crew.stop) && crew.epoch = seen do
    Condition.wait crew.signal crew.lock
  done;
  if crew.stop then Mutex.unlock crew.lock
  else begin
    let epoch = crew.epoch and job = crew.job in
    Mutex.unlock crew.lock;
    Option.iter drain job;
    Mutex.lock crew.lock;
    crew.active <- crew.active - 1;
    if crew.active = 0 then Condition.broadcast crew.signal;
    Mutex.unlock crew.lock;
    work crew epoch
  end

let spawn size =
  let crew =
    {
      size;
      lock = Mutex.create ();
      signal = Condition.create ();
      job = None;
      epoch = 0;
      active = 0;
      stop = false;
      domains = [];
    }
  in
  crew.domains <-
    List.init (size - 1) (fun _ -> Domain.spawn (fun () -> work crew 0));
  crew

let dismiss crew =
  Mutex.lock crew.lock;
  crew.stop <- true;
  Condition.broadcast crew.signal;
  Mutex.unlock crew.lock;
  List.iter Domain.join crew.domains

(* Run [r] on the caller and every worker; return once all of them have
   left it, so no body of [r] runs after this returns. *)
let run_region crew r =
  Mutex.lock crew.lock;
  crew.job <- Some r;
  crew.epoch <- crew.epoch + 1;
  crew.active <- crew.size - 1;
  Condition.broadcast crew.signal;
  Mutex.unlock crew.lock;
  drain r;
  Mutex.lock crew.lock;
  while crew.active > 0 do
    Condition.wait crew.signal crew.lock
  done;
  crew.job <- None;
  Mutex.unlock crew.lock

(* The crew is lent to one map at a time, and only the borrower touches
   [crew]. A map that finds it lent out runs inline: that covers two
   domains mapping at once and a map nested in a body (a worker's or the
   caller's), and it keeps a caller that holds a lock across a map —
   [Kernel_set.create] around the autotuner — from waiting on a crew
   whose bodies might want that lock. *)
let lent = Atomic.make false

let crew = ref None

(* The crew sized for [size] participants, replacing one of another size. *)
let borrow size =
  match !crew with
  | Some c when c.size = size -> c
  | old ->
    crew := None;
    Option.iter dismiss old;
    let c = spawn size in
    crew := Some c;
    c

let ceil_div a b = (a + b - 1) / b

let map ?(jobs = 0) ~min_chunk f a =
  if min_chunk < 1 then invalid_arg "Domain_pool.map: min_chunk must be >= 1";
  let n = Array.length a and workers = effective_jobs jobs in
  if workers = 1 || n <= min_chunk
     || not (Atomic.compare_and_set lent false true)
  then Array.map f a
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set lent false)
      (fun () ->
        let chunk = max min_chunk (ceil_div n (4 * workers)) in
        let out = Array.make n None in
        let r =
          {
            run =
              (fun c ->
                for i = c * chunk to min n ((c + 1) * chunk) - 1 do
                  out.(i) <- Some (f a.(i))
                done);
            chunks = ceil_div n chunk;
            cursor = Atomic.make 0;
            failure = Atomic.make None;
          }
        in
        run_region (borrow workers) r;
        Option.iter
          (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
          (Atomic.get r.failure);
        Array.map Option.get out)
