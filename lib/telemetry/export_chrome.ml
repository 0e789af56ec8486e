let to_us ~per_second t = t /. per_second *. 1e6

let to_json ~units spans =
  let tracks =
    List.sort_uniq compare (List.map (fun (s : Span.t) -> s.track) spans)
  in
  let pid_of track =
    let rec go i = function
      | [] -> 0
      | t :: _ when t = track -> i
      | _ :: rest -> go (i + 1) rest
    in
    1 + go 0 tracks
  in
  let meta =
    List.map
      (fun track ->
        Json.Obj
          [
            ("ph", Json.String "M");
            ("pid", Json.Number (float_of_int (pid_of track)));
            ("tid", Json.Number 0.);
            ("name", Json.String "process_name");
            ("args", Json.Obj [ ("name", Json.String track) ]);
          ])
      tracks
  in
  let event (s : Span.t) =
    let per_second = units s.track in
    let args =
      List.map (fun (k, v) -> (k, Json.String v)) s.attrs
      @ (if s.parent = Span.no_parent then []
         else [ ("parent", Json.Number (float_of_int s.parent)) ])
    in
    Json.Obj
      ([
         ("name", Json.String s.name);
         ("cat", Json.String s.track);
         ("ph", Json.String "X");
         ("pid", Json.Number (float_of_int (pid_of s.track)));
         ("tid", Json.Number (float_of_int s.lane));
         ("ts", Json.Number (to_us ~per_second s.start));
         ("dur", Json.Number (to_us ~per_second (Span.duration s)));
       ]
      @ if args = [] then [] else [ ("args", Json.Obj args) ])
  in
  let events = List.map event (List.sort Span.compare_start spans) in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ events));
      ("displayTimeUnit", Json.String "ms");
    ]

let to_string ~units spans = Json.to_string (to_json ~units spans)

let of_tracer () = to_string ~units:Tracer.units (Tracer.spans ())
