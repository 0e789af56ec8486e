(* The binary heap [Util.Heap] replaced, ordered by a comparison closure,
   kept as a reference model: [Util.Heap] with a constant tie must pop
   equal keys in exactly this heap's order, and the reference schedulers
   in [test_accel] run on it. *)

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable len : int;
}

let create ~cmp = { cmp; data = [||]; len = 0 }

let is_empty t = t.len = 0

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.len && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t x =
  if t.len >= Array.length t.data then begin
    let ndata = Array.make (max 16 (2 * Array.length t.data)) x in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      sift_down t 0
    end;
    Some top
  end
