(* Entry [i] is (keys.(i), ties.(i), data.(i)); the three arrays move in
   lockstep. *)
type 'a t = {
  mutable keys : float array;
  mutable ties : int array;
  mutable data : 'a array;
  mutable len : int;
}

let create () = { keys = [||]; ties = [||]; data = [||]; len = 0 }

let size t = t.len

let is_empty t = t.len = 0

(* Entry [i] sorts strictly before entry [j]. *)
let lt t i j =
  match Float.compare t.keys.(i) t.keys.(j) with
  | 0 -> t.ties.(i) < t.ties.(j)
  | c -> c < 0

let swap t i j =
  let k = t.keys.(i) and tie = t.ties.(i) and x = t.data.(i) in
  t.keys.(i) <- t.keys.(j);
  t.ties.(i) <- t.ties.(j);
  t.data.(i) <- t.data.(j);
  t.keys.(j) <- k;
  t.ties.(j) <- tie;
  t.data.(j) <- x

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.len && lt t l i then l else i in
  let smallest = if r < t.len && lt t r smallest then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let grow t x =
  let cap = max 16 (2 * Array.length t.data) in
  let keys = Array.make cap 0. and ties = Array.make cap 0 in
  let data = Array.make cap x in
  Array.blit t.keys 0 keys 0 t.len;
  Array.blit t.ties 0 ties 0 t.len;
  Array.blit t.data 0 data 0 t.len;
  t.keys <- keys;
  t.ties <- ties;
  t.data <- data

let push t key tie x =
  if t.len = Array.length t.data then grow t x;
  let i = t.len in
  t.keys.(i) <- key;
  t.ties.(i) <- tie;
  t.data.(i) <- x;
  t.len <- i + 1;
  sift_up t i

let check_nonempty t fn = if t.len = 0 then invalid_arg ("Heap." ^ fn ^ ": empty")

let min_key t =
  check_nonempty t "min_key";
  t.keys.(0)

let top t =
  check_nonempty t "top";
  t.data.(0)

let pop t =
  check_nonempty t "pop";
  let x = t.data.(0) in
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    t.keys.(0) <- t.keys.(last);
    t.ties.(0) <- t.ties.(last);
    t.data.(0) <- t.data.(last);
    sift_down t 0
  end;
  x
