open Mikpoly_accel
open Mikpoly_autosched

(* v2 added the hardware fingerprint line; v3 adds a body checksum (and
   writes go through a tempfile + atomic rename). Older files are
   rejected as unrecognized, forcing a re-tune rather than a silent reuse
   of an artifact the new validation never covered. *)
let magic = "mikpoly-kernel-set v3"

let path_to_string = function Hardware.Matrix -> "matrix" | Vector -> "vector"

let path_of_string = function
  | "matrix" -> Some Hardware.Matrix
  | "vector" -> Some Hardware.Vector
  | _ -> None

let dtype_to_string = Mikpoly_tensor.Dtype.to_string

let dtype_of_string = function
  | "fp16" -> Some Mikpoly_tensor.Dtype.F16
  | "fp32" -> Some Mikpoly_tensor.Dtype.F32
  | _ -> None

(* The body (everything below the header) as lines, shared by save and
   the checksum so the two can never disagree on what is covered. *)
let body_lines (set : Kernel_set.t) =
  List.concat_map
    (fun (e : Kernel_set.entry) ->
      let d = e.desc in
      let kernel_line =
        Printf.sprintf "kernel %d %d %d %s %s %.9g %s %.9g" d.um d.un d.uk
          (dtype_to_string d.dtype) (path_to_string d.path) d.codegen_eff
          d.origin e.rank_score
      in
      [ kernel_line; "gpredict " ^ Mikpoly_util.Piecewise.to_string e.model.g ])
    (Array.to_list set.entries)

let body_checksum lines =
  Mikpoly_util.Checksum.fnv1a64_hex (String.concat "\n" lines)

let save ~path (config : Config.t) (set : Kernel_set.t) =
  let body = body_lines set in
  (* Tempfile + atomic rename: a crash mid-write leaves the previous
     artifact intact, never a half-written one. *)
  Mikpoly_util.Atomic_file.write ~path (fun oc ->
      Printf.fprintf oc "%s\n" magic;
      Printf.fprintf oc "hw %s\n" set.hw.Hardware.name;
      Printf.fprintf oc "fingerprint %s\n" (Hardware.fingerprint set.hw);
      Printf.fprintf oc "config %s\n" (Config.cache_key config);
      Printf.fprintf oc "checksum %s\n" (body_checksum body);
      List.iter (fun l -> Printf.fprintf oc "%s\n" l) body)

let load ~path (hw : Hardware.t) (config : Config.t) =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match
    Mikpoly_util.Atomic_file.read_checked ~path
      ~header:
        [
          (magic, fun _ -> "unrecognized kernel-set file");
          ( "hw " ^ hw.Hardware.name,
            Printf.sprintf "kernel set was generated for a different platform (%s)"
          );
          ( "fingerprint " ^ Hardware.fingerprint hw,
            Printf.sprintf
              "kernel set was generated for a different hardware configuration (%s)"
          );
          ( "config " ^ Config.cache_key config,
            fun _ -> "kernel set was generated with a different configuration" );
        ]
      ~checksum:body_checksum
      ~corrupt:"kernel set failed checksum verification (corrupted artifact)"
      ~truncated:"truncated kernel-set file"
  with
  | Error _ as e -> e
  | Ok body -> (
    try
      let rec parse acc rank = function
        | [] -> Ok (List.rev acc)
        | kernel_line :: g_line :: rest -> (
          match (String.split_on_char ' ' kernel_line, g_line) with
          | [ "kernel"; um; un; uk; dtype; cpath; eff; origin; score ], g_line
            when String.length g_line > 9 && String.sub g_line 0 9 = "gpredict "
            -> (
            match (dtype_of_string dtype, path_of_string cpath) with
            | Some dtype, Some cpath ->
              let codegen_eff = float_of_string eff
              and rank_score = float_of_string score
              and points =
                Mikpoly_util.Piecewise.points_of_string
                  (String.sub g_line 9 (String.length g_line - 9))
              in
              if
                not
                  (List.for_all Float.is_finite
                     (codegen_eff :: rank_score
                     :: List.concat_map (fun (x, y) -> [ x; y ]) points))
              then Error "non-finite number in a kernel entry"
              else
                let desc =
                  Kernel_desc.make ~dtype ~path:cpath ~codegen_eff ~origin
                    ~um:(int_of_string um) ~un:(int_of_string un)
                    ~uk:(int_of_string uk) ()
                in
                let wave_capacity = Kernel_model.wave_capacity hw desc in
                if wave_capacity < 1 then
                  fail "kernel %dx%dx%d cannot be resident on %s" desc.um
                    desc.un desc.uk hw.Hardware.name
                else
                  let g = Mikpoly_util.Piecewise.of_points points in
                  let entry =
                    {
                      Kernel_set.desc;
                      model = { Perf_model.kernel = desc; g };
                      wave_capacity;
                      rank;
                      rank_score;
                    }
                  in
                  parse (entry :: acc) (rank + 1) rest
            | _ -> Error "bad dtype or path")
          | _ -> Error "malformed kernel entry")
        | _ -> Error "truncated kernel entry"
      in
      match parse [] 0 body with
      | Ok [] -> Error "kernel set is empty"
      | Ok entries -> Ok { Kernel_set.hw; entries = Array.of_list entries }
      | Error e -> Error e
    with Failure e | Invalid_argument e -> Error e)

let load_or_create ~path hw config =
  if Sys.file_exists path then load ~path hw config
  else
    let set = Kernel_set.create hw config in
    save ~path config set;
    Ok set
