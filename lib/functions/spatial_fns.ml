(** Spatial (GIS) functions over the {!Sqlfun_data.Geometry} substrate,
    plus the XML pair ([UPDATEXML]/[EXTRACTVALUE]). *)

open Sqlfun_value
open Sqlfun_data

let geo_scalar = Func_sig.scalar ~category:"spatial"
let xml_scalar = Func_sig.scalar ~category:"xml"

let st_geomfromtext_fn =
  geo_scalar "ST_GEOMFROMTEXT" ~min_args:1 ~max_args:(Some 1)
    ~hints:[ Func_sig.H_geo ] ~examples:[ "ST_GEOMFROMTEXT('POINT(1 2)')" ]
    (fun ctx args ->
      match Geometry.of_wkt (Args.str ctx args 0) with
      | Ok g -> Value.Geom g
      | Error msg ->
        Fn_ctx.point ctx "geomfromtext/bad-wkt";
        Fn_ctx.err "ST_GEOMFROMTEXT: %s" msg)

let st_geomfromwkb_fn =
  geo_scalar "ST_GEOMFROMWKB" ~min_args:1 ~max_args:(Some 1)
    ~hints:[ Func_sig.H_any ]
    ~examples:[ "ST_GEOMFROMWKB(ST_ASBINARY(POINT(1, 2)))" ]
    (fun ctx args ->
      match Geometry.of_wkb (Args.blob ctx args 0) with
      | Ok g -> Value.Geom g
      | Error msg ->
        Fn_ctx.point ctx "geomfromwkb/invalid";
        Fn_ctx.err "ST_GEOMFROMWKB: %s" msg)

let geometry_arg ctx args i =
  match Args.value args i with
  | Value.Geom g -> g
  | Value.Str s ->
    (match Geometry.of_wkt s with
     | Ok g -> g
     | Error msg -> Fn_ctx.err "argument %d: %s" (i + 1) msg)
  | Value.Blob b ->
    (* A correct implementation validates blobs as WKB before use — raw
       address bytes from INET6_ATON fail here with a clean error. *)
    (match Geometry.of_wkb b with
     | Ok g -> g
     | Error msg ->
       Fn_ctx.point ctx "geo/blob-not-wkb";
       Fn_ctx.err "argument %d is not valid WKB: %s" (i + 1) msg)
  | v -> Fn_ctx.err "argument %d is not a geometry (%s)" (i + 1)
      (Value.ty_name (Value.type_of v))

let st_astext_fn =
  geo_scalar "ST_ASTEXT" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_geo ]
    ~examples:[ "ST_ASTEXT(POINT(1, 2))" ]
    (fun ctx args -> Value.Str (Geometry.to_wkt (geometry_arg ctx args 0)))

let st_asbinary_fn =
  geo_scalar "ST_ASBINARY" ~min_args:1 ~max_args:(Some 1)
    ~hints:[ Func_sig.H_geo ] ~examples:[ "ST_ASBINARY(POINT(1, 2))" ]
    (fun ctx args -> Value.Blob (Geometry.to_wkb (geometry_arg ctx args 0)))

let point_fn =
  geo_scalar "POINT" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_num; Func_sig.H_num ] ~examples:[ "POINT(1, 2)" ]
    (fun ctx args ->
      let x = Args.float_ ctx args 0 and y = Args.float_ ctx args 1 in
      if Float.is_nan x || Float.is_nan y then Fn_ctx.err "POINT: NaN coordinate"
      else Value.Geom (Geometry.Point { Geometry.x; y }))

let coord name pick =
  geo_scalar name ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_geo ]
    ~examples:[ Printf.sprintf "%s(POINT(1, 2))" name ]
    (fun ctx args ->
      match geometry_arg ctx args 0 with
      | Geometry.Point p -> Value.Float (pick p)
      | _ ->
        Fn_ctx.point ctx (String.lowercase_ascii name ^ "/non-point");
        Fn_ctx.err "%s: argument is not a point" name)

let st_x_fn = coord "ST_X" (fun p -> p.Geometry.x)
let st_y_fn = coord "ST_Y" (fun p -> p.Geometry.y)

let boundary_fn =
  geo_scalar "BOUNDARY" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_geo ]
    ~examples:[ "BOUNDARY(ST_GEOMFROMTEXT('LINESTRING(0 0, 1 1)'))" ]
    (fun ctx args ->
      match Geometry.boundary (geometry_arg ctx args 0) with
      | Some g -> Value.Geom g
      | None ->
        Fn_ctx.point ctx "boundary/undefined";
        Value.Null)

let st_numpoints_fn =
  geo_scalar "ST_NUMPOINTS" ~min_args:1 ~max_args:(Some 1)
    ~hints:[ Func_sig.H_geo ]
    ~examples:[ "ST_NUMPOINTS(ST_GEOMFROMTEXT('LINESTRING(0 0, 1 1)'))" ]
    (fun ctx args ->
      Value.Int (Int64.of_int (Geometry.num_points (geometry_arg ctx args 0))))

let segment_length ps =
  let rec go acc = function
    | a :: (b :: _ as rest) ->
      let dx = b.Geometry.x -. a.Geometry.x and dy = b.Geometry.y -. a.Geometry.y in
      go (acc +. Float.sqrt ((dx *. dx) +. (dy *. dy))) rest
    | [ _ ] | [] -> acc
  in
  go 0.0 ps

let st_length_fn =
  geo_scalar "ST_LENGTH" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_geo ]
    ~examples:[ "ST_LENGTH(ST_GEOMFROMTEXT('LINESTRING(0 0, 3 4)'))" ]
    (fun ctx args ->
      match geometry_arg ctx args 0 with
      | Geometry.Linestring ps -> Value.Float (segment_length ps)
      | _ -> Value.Null)

let shoelace ring =
  let rec go acc = function
    | a :: (b :: _ as rest) ->
      go (acc +. ((a.Geometry.x *. b.Geometry.y) -. (b.Geometry.x *. a.Geometry.y))) rest
    | [ _ ] | [] -> acc
  in
  Float.abs (go 0.0 ring) /. 2.0

let st_area_fn =
  geo_scalar "ST_AREA" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_geo ]
    ~examples:[ "ST_AREA(ST_GEOMFROMTEXT('POLYGON((0 0, 4 0, 4 4, 0 4, 0 0))'))" ]
    (fun ctx args ->
      match geometry_arg ctx args 0 with
      | Geometry.Polygon (outer :: holes) ->
        Value.Float
          (List.fold_left (fun acc h -> acc -. shoelace h) (shoelace outer) holes)
      | Geometry.Polygon [] -> Value.Float 0.0
      | _ -> Value.Float 0.0)

let all_points g =
  let rec go acc = function
    | Geometry.Point p -> p :: acc
    | Geometry.Linestring ps | Geometry.Multipoint ps -> List.rev_append ps acc
    | Geometry.Polygon rings -> List.fold_left (fun a r -> List.rev_append r a) acc rings
    | Geometry.Collection gs -> List.fold_left go acc gs
  in
  go [] g

let centroid_fn =
  geo_scalar "CENTROID" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_geo ]
    ~examples:[ "CENTROID(ST_GEOMFROMTEXT('LINESTRING(0 0, 2 2)'))" ]
    (fun ctx args ->
      match all_points (geometry_arg ctx args 0) with
      | [] ->
        Fn_ctx.point ctx "centroid/empty";
        Value.Null
      | ps ->
        let n = float_of_int (List.length ps) in
        let sx = List.fold_left (fun a p -> a +. p.Geometry.x) 0.0 ps in
        let sy = List.fold_left (fun a p -> a +. p.Geometry.y) 0.0 ps in
        Value.Geom (Geometry.Point { Geometry.x = sx /. n; y = sy /. n }))

let st_distance_fn =
  geo_scalar "ST_DISTANCE" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_geo; Func_sig.H_geo ]
    ~examples:[ "ST_DISTANCE(POINT(0, 0), POINT(3, 4))" ]
    (fun ctx args ->
      match (geometry_arg ctx args 0, geometry_arg ctx args 1) with
      | Geometry.Point a, Geometry.Point b ->
        let dx = b.Geometry.x -. a.Geometry.x and dy = b.Geometry.y -. a.Geometry.y in
        Value.Float (Float.sqrt ((dx *. dx) +. (dy *. dy)))
      | _, _ -> Fn_ctx.err "ST_DISTANCE: only point-to-point distance is supported")

let envelope_fn =
  geo_scalar "ENVELOPE" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_geo ]
    ~examples:[ "ENVELOPE(ST_GEOMFROMTEXT('LINESTRING(0 0, 2 3)'))" ]
    (fun ctx args ->
      match all_points (geometry_arg ctx args 0) with
      | [] -> Value.Null
      | p0 :: rest ->
        let minx, miny, maxx, maxy =
          List.fold_left
            (fun (mnx, mny, mxx, mxy) p ->
              ( Float.min mnx p.Geometry.x,
                Float.min mny p.Geometry.y,
                Float.max mxx p.Geometry.x,
                Float.max mxy p.Geometry.y ))
            (p0.Geometry.x, p0.Geometry.y, p0.Geometry.x, p0.Geometry.y)
            rest
        in
        Value.Geom
          (Geometry.Polygon
             [
               [
                 { Geometry.x = minx; y = miny };
                 { Geometry.x = maxx; y = miny };
                 { Geometry.x = maxx; y = maxy };
                 { Geometry.x = minx; y = maxy };
                 { Geometry.x = minx; y = miny };
               ];
             ]))

(* ----- XML ----- *)

let updatexml_fn =
  xml_scalar "UPDATEXML" ~min_args:3 ~max_args:(Some 3)
    ~hints:[ Func_sig.H_xml; Func_sig.H_xpath; Func_sig.H_xml ]
    ~examples:[ "UPDATEXML('<a><c></c></a>', '/a/c[1]', '<b></b>')" ]
    (fun ctx args ->
      let doc = Args.xml ctx args 0 in
      let path = Args.xpath ctx args 1 in
      let replacement = Args.xml ctx args 2 in
      Value.Str (Xml_doc.to_string (Xml_doc.update doc path replacement)))

let extractvalue_fn =
  xml_scalar "EXTRACTVALUE" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_xml; Func_sig.H_xpath ]
    ~examples:[ "EXTRACTVALUE('<a><b>x</b></a>', '/a/b')" ]
    (fun ctx args ->
      let doc = Args.xml ctx args 0 in
      let path = Args.xpath ctx args 1 in
      match Xml_doc.extract doc path with
      | [] ->
        Fn_ctx.point ctx "extractvalue/miss";
        Value.Str ""
      | nodes ->
        Value.Str (String.concat " " (List.map Xml_doc.text_content nodes)))

let xml_valid_fn =
  xml_scalar "XML_VALID" ~min_args:1 ~max_args:(Some 1) ~hints:[ Func_sig.H_xml ]
    ~examples:[ "XML_VALID('<a></a>')" ]
    (fun ctx args ->
      match Xml_doc.parse (Args.str ctx args 0) with
      | Ok _ -> Value.Bool true
      | Error _ -> Value.Bool false)

let specs =
  [
    st_geomfromtext_fn; st_geomfromwkb_fn; st_astext_fn; st_asbinary_fn;
    point_fn; st_x_fn; st_y_fn; boundary_fn; st_numpoints_fn; st_length_fn;
    st_area_fn; centroid_fn; st_distance_fn; envelope_fn; updatexml_fn;
    extractvalue_fn; xml_valid_fn;
  ]
