type t = I | II | III | IV | V | VI | VII | VIII | IX

let all = [ I; II; III; IV; V; VI; VII; VIII; IX ]

let gpu_defaults = [ I; II ]

let npu_defaults = all

let to_string = function
  | I -> "Pattern-I"
  | II -> "Pattern-II"
  | III -> "Pattern-III"
  | IV -> "Pattern-IV"
  | V -> "Pattern-V"
  | VI -> "Pattern-VI"
  | VII -> "Pattern-VII"
  | VIII -> "Pattern-VIII"
  | IX -> "Pattern-IX"

let arity = function I -> 0 | II | III -> 1 | IV | V | VI | VII | VIII | IX -> 2

type rect = { row_off : int; col_off : int; rows : int; cols : int }

let rect row_off col_off rows cols = { row_off; col_off; rows; cols }

let in_range cut limit = cut > 0 && cut < limit

let decompose p ~m ~n ~cuts =
  if List.length cuts <> arity p then
    invalid_arg "Pattern.decompose: wrong number of cuts";
  match (p, cuts) with
  | I, [] -> Some [ rect 0 0 m n ]
  | II, [ r ] ->
    if in_range r m then Some [ rect 0 0 r n; rect r 0 (m - r) n ] else None
  | III, [ c ] ->
    if in_range c n then Some [ rect 0 0 m c; rect 0 c m (n - c) ] else None
  | IV, [ r; c ] ->
    (* Cross quad: main, right, bottom-left, bottom-right. *)
    if in_range r m && in_range c n then
      Some
        [
          rect 0 0 r c;
          rect 0 c r (n - c);
          rect r 0 (m - r) c;
          rect r c (m - r) (n - c);
        ]
    else None
  | V, [ r; c ] ->
    (* L-shape: main, right, full-width bottom band. *)
    if in_range r m && in_range c n then
      Some [ rect 0 0 r c; rect 0 c r (n - c); rect r 0 (m - r) n ]
    else None
  | VI, [ r; c ] ->
    (* Rotated L: main, full-height right band, bottom-left. *)
    if in_range r m && in_range c n then
      Some [ rect 0 0 r c; rect 0 c m (n - c); rect r 0 (m - r) c ]
    else None
  | VII, [ r1; r2 ] ->
    (* Three horizontal bands. *)
    if in_range r1 m && in_range r2 m && r1 < r2 then
      Some [ rect 0 0 r1 n; rect r1 0 (r2 - r1) n; rect r2 0 (m - r2) n ]
    else None
  | VIII, [ c1; c2 ] ->
    (* Three vertical bands. *)
    if in_range c1 n && in_range c2 n && c1 < c2 then
      Some [ rect 0 0 m c1; rect 0 c1 m (c2 - c1); rect 0 c2 m (n - c2) ]
    else None
  | IX, [ r; c ] ->
    (* Full-width top band, bottom band split in two. *)
    if in_range r m && in_range c n then
      Some [ rect 0 0 r n; rect r 0 (m - r) c; rect r c (m - r) (n - c) ]
    else None
  | _ -> assert false
