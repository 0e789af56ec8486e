module Pw = Mikpoly_util.Piecewise
module Hardware = Mikpoly_accel.Hardware

(* v2 added the body checksum line (and writes go through a tempfile +
   atomic rename); v1 files are rejected as unrecognized. *)
let magic = "mikpoly-calibration v2"

(* The checksum covers exactly [Calibration.to_string] — canonical, so
   identical observations keep producing byte-identical artifacts. *)
let body_checksum body = Mikpoly_util.Checksum.fnv1a64_hex body

let save ~path (hw : Hardware.t) (cal : Calibration.t) =
  let body = Calibration.to_string cal in
  Mikpoly_util.Atomic_file.write ~path (fun oc ->
      Printf.fprintf oc "%s\n" magic;
      Printf.fprintf oc "hw %s\n" hw.name;
      Printf.fprintf oc "fingerprint %s\n" (Calibration.fingerprint cal);
      Printf.fprintf oc "checksum %s\n" (body_checksum body);
      output_string oc body)

(* Only what the fitter can produce: finite numbers and, for a linear
   curve, a positive slope. So no correction turns a cost NaN, and none
   maps every large cost to 0. *)
let finite xs =
  if not (List.for_all Float.is_finite xs) then
    failwith "non-finite number in a calibration curve"

let positive_slope a =
  if a <= 0. then failwith "non-positive slope in a calibration curve"

let parse_curve = function
  | [ "identity" ] -> Calibration.Identity
  | [ "scale"; a ] ->
    let a = float_of_string a in
    finite [ a ];
    positive_slope a;
    Calibration.Scale a
  | [ "affine"; a; b ] ->
    let a = float_of_string a and b = float_of_string b in
    finite [ a; b ];
    positive_slope a;
    Calibration.Affine (a, b)
  | "knots" :: (_ :: _ as pts) ->
    let points = Pw.points_of_string (String.concat " " pts) in
    finite (List.concat_map (fun (x, y) -> [ x; y ]) points);
    Calibration.Knots (Pw.of_points points)
  | _ -> failwith "malformed curve"

let parse_kernel line =
  match String.split_on_char ' ' line with
  | "kernel" :: um :: un :: uk :: curve ->
    ( (int_of_string um, int_of_string un, int_of_string uk),
      parse_curve curve )
  | _ -> failwith "malformed kernel line"

(* [Calibration.to_string] newline-terminates every line, so the body
   is exactly the lines after the header re-terminated. *)
let load ~path (hw : Hardware.t) =
  let fp = Hardware.fingerprint hw in
  match
    Mikpoly_util.Atomic_file.read_checked ~path
      ~header:
        [
          (magic, fun _ -> "unrecognized calibration file");
          ( "hw " ^ hw.name,
            Printf.sprintf "calibration was recorded on a different platform (%s)"
          );
          ( "fingerprint " ^ fp,
            Printf.sprintf
              "calibration was recorded for a different hardware configuration (%s)"
          );
        ]
      ~checksum:(fun lines ->
        body_checksum (String.concat "" (List.map (fun l -> l ^ "\n") lines)))
      ~corrupt:"calibration failed checksum verification (corrupted artifact)"
      ~truncated:"truncated calibration file"
  with
  | Error _ as e -> e
  | Ok body -> (
    try Ok (Calibration.of_curves ~fingerprint:fp (List.map parse_kernel body))
    with Failure e | Invalid_argument e -> Error e)
