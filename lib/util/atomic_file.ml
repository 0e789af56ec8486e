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

let write ~path f =
  refuse_non_regular path;
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
