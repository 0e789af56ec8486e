(* Crash-safe whole-file writes: write to a tempfile in the same
   directory (so the final rename cannot cross a filesystem boundary),
   flush, then atomically rename over the destination. A process killed
   mid-write leaves the previous artifact intact and at worst a stale
   tempfile behind; readers never observe a partial file. *)

let temp_path path = path ^ ".tmp"

(* A rename replaces whatever [path] names, so anything but a regular
   file (a FIFO, a directory, a device node, a symlink) is refused before
   a tempfile exists. [lstat] does not follow links. *)
let refuse_non_regular path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_REG -> ()
  | Unix.S_LNK -> raise (Sys_error (path ^ ": is a symbolic link; not replaced"))
  | _ -> raise (Sys_error (path ^ ": not a regular file; not replaced"))
  | exception Unix.Unix_error _ -> ()

let check_target ~path =
  (match (Unix.stat (Filename.dirname path)).Unix.st_kind with
  | Unix.S_DIR -> ()
  | _ -> raise (Sys_error (path ^ ": " ^ Unix.error_message Unix.ENOTDIR))
  | exception Unix.Unix_error (err, _, _) ->
    raise (Sys_error (path ^ ": " ^ Unix.error_message err)));
  refuse_non_regular path

let write ~path f =
  check_target ~path;
  let tmp = temp_path path in
  let oc = open_out tmp in
  match
    f oc;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    (* The writer, the flush or the rename failed: drop the tempfile and
       leave whatever was at [path] untouched. *)
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let read_lines path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> Ok (List.rev acc)
        in
        go [])

let read_checked ~path ~header ~checksum ~corrupt ~truncated =
  match read_lines path with
  | Error _ as e -> e
  | Ok lines when List.length lines <= List.length header -> Error truncated
  | Ok lines ->
    let rec check header lines =
      match (header, lines) with
      | (expected, mismatch) :: header, line :: lines ->
        if line = expected then check header lines else Error (mismatch line)
      | [], sum_line :: body ->
        if sum_line = "checksum " ^ checksum body then Ok body
        else Error corrupt
      | _ :: _, [] | [], [] -> Error truncated
    in
    check header lines
