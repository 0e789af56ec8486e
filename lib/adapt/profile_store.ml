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

let parse_points s =
  let parse_one tok =
    match String.split_on_char ':' tok with
    | [ x; y ] -> (float_of_string x, float_of_string y)
    | _ -> failwith "bad breakpoint"
  in
  List.map parse_one
    (List.filter (fun t -> t <> "") (String.split_on_char ' ' s))

let parse_curve = function
  | [ "identity" ] -> Calibration.Identity
  | [ "scale"; a ] -> Calibration.Scale (float_of_string a)
  | [ "affine"; a; b ] ->
    Calibration.Affine (float_of_string a, float_of_string b)
  | "knots" :: (_ :: _ as pts) ->
    Calibration.Knots (Pw.of_points (parse_points (String.concat " " pts)))
  | _ -> failwith "malformed curve"

let parse_kernel line =
  match String.split_on_char ' ' line with
  | "kernel" :: um :: un :: uk :: curve ->
    ( (int_of_string um, int_of_string un, int_of_string uk),
      parse_curve curve )
  | _ -> failwith "malformed kernel line"

let load ~path (hw : Hardware.t) =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        match List.rev !lines with
        | header :: hw_line :: fp_line :: sum_line :: rest ->
          let fp = Hardware.fingerprint hw in
          (* [Calibration.to_string] newline-terminates every line, so the
             body is exactly the remaining lines re-terminated. *)
          let body = String.concat "" (List.map (fun l -> l ^ "\n") rest) in
          if header <> magic then fail "unrecognized calibration file"
          else if hw_line <> "hw " ^ hw.name then
            fail "calibration was recorded on a different platform (%s)" hw_line
          else if fp_line <> "fingerprint " ^ fp then
            fail
              "calibration was recorded for a different hardware configuration (%s)"
              fp_line
          else if sum_line <> "checksum " ^ body_checksum body then
            fail "calibration failed checksum verification (corrupted artifact)"
          else begin
            try Ok (Calibration.of_curves ~fingerprint:fp (List.map parse_kernel rest))
            with Failure e | Invalid_argument e -> Error e
          end
        | _ -> fail "truncated calibration file")
