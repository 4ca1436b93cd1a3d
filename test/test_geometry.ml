(* Unit and property tests for the convex-hull geometry layer. *)

open Kondo_geometry

let pt2 x y = [| float_of_int x; float_of_int y |]
let pt3 x y z = [| float_of_int x; float_of_int y; float_of_int z |]

(* ---------------- Vec ---------------- *)

let test_vec_ops () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 6.0; 8.0 |] in
  Alcotest.(check (array (float 1e-9))) "add" [| 5.0; 8.0; 11.0 |] (Vec.add a b);
  Alcotest.(check (array (float 1e-9))) "sub" [| 3.0; 4.0; 5.0 |] (Vec.sub b a);
  Alcotest.(check (float 1e-9)) "dot" 40.0 (Vec.dot a b);
  Alcotest.(check (float 1e-9)) "dist" (sqrt 50.0) (Vec.dist a b);
  Alcotest.(check (array (float 1e-9))) "lerp midpoint" [| 2.5; 4.0; 5.5 |] (Vec.lerp a b 0.5)

let test_vec_cross2 () =
  Alcotest.(check bool) "ccw positive" true (Vec.cross2 (pt2 0 0) (pt2 1 0) (pt2 0 1) > 0.0);
  Alcotest.(check bool) "cw negative" true (Vec.cross2 (pt2 0 0) (pt2 0 1) (pt2 1 0) < 0.0);
  Alcotest.(check (float 1e-9)) "collinear zero" 0.0 (Vec.cross2 (pt2 0 0) (pt2 1 1) (pt2 2 2))

let test_vec_cross3 () =
  Alcotest.(check (array (float 1e-9))) "x cross y = z" [| 0.0; 0.0; 1.0 |]
    (Vec.cross3 [| 1.0; 0.0; 0.0 |] [| 0.0; 1.0; 0.0 |])

let test_vec_centroid () =
  Alcotest.(check (array (float 1e-9))) "centroid" [| 1.0; 1.0 |]
    (Vec.centroid [ pt2 0 0; pt2 2 0; pt2 2 2; pt2 0 2 ])

(* ---------------- Bbox ---------------- *)

let test_bbox_of_points () =
  let b = Bbox.of_points [ pt2 3 1; pt2 0 5; pt2 2 2 ] in
  Alcotest.(check (array (float 1e-9))) "lo" [| 0.0; 1.0 |] (Bbox.lo b);
  Alcotest.(check (array (float 1e-9))) "hi" [| 3.0; 5.0 |] (Bbox.hi b)

let test_bbox_contains () =
  let b = Bbox.make [| 0.0; 0.0 |] [| 2.0; 2.0 |] in
  Alcotest.(check bool) "inside" true (Bbox.contains b [| 1.0; 1.0 |]);
  Alcotest.(check bool) "boundary" true (Bbox.contains b [| 2.0; 0.0 |]);
  Alcotest.(check bool) "outside" false (Bbox.contains b [| 2.1; 0.0 |])

let test_bbox_lattice () =
  let b = Bbox.make [| 0.0; 0.0 |] [| 2.0; 3.0 |] in
  Alcotest.(check int) "count" 12 (Bbox.lattice_count b);
  let n = ref 0 in
  Bbox.iter_lattice b (fun _ -> incr n);
  Alcotest.(check int) "iter matches count" 12 !n

let test_bbox_lattice_fractional () =
  let b = Bbox.make [| 0.5 |] [| 3.5 |] in
  Alcotest.(check int) "1..3" 3 (Bbox.lattice_count b)

let test_bbox_min_dist () =
  let a = Bbox.make [| 0.0; 0.0 |] [| 1.0; 1.0 |] in
  let b = Bbox.make [| 4.0; 1.0 |] [| 5.0; 2.0 |] in
  Alcotest.(check (float 1e-9)) "axis gap" 3.0 (Bbox.min_dist a b);
  Alcotest.(check (float 1e-9)) "overlap is zero" 0.0 (Bbox.min_dist a a)

let test_bbox_volume_union () =
  let a = Bbox.make [| 0.0; 0.0 |] [| 2.0; 3.0 |] in
  Alcotest.(check (float 1e-9)) "volume" 6.0 (Bbox.volume a);
  let b = Bbox.make [| -1.0; 1.0 |] [| 1.0; 5.0 |] in
  let u = Bbox.union a b in
  Alcotest.(check (array (float 1e-9))) "union lo" [| -1.0; 0.0 |] (Bbox.lo u);
  Alcotest.(check (array (float 1e-9))) "union hi" [| 2.0; 5.0 |] (Bbox.hi u)

(* ---------------- Hull2d ---------------- *)

let test_hull2d_square () =
  let h = Hull2d.of_points [ pt2 0 0; pt2 4 0; pt2 4 4; pt2 0 4; pt2 2 2; pt2 1 1 ] in
  Alcotest.(check int) "4 vertices" 4 (List.length (Hull2d.vertices h));
  Alcotest.(check (float 1e-9)) "area" 16.0 (Hull2d.area h);
  Alcotest.(check bool) "interior" true (Hull2d.contains h (pt2 2 3));
  Alcotest.(check bool) "edge" true (Hull2d.contains h (pt2 4 2));
  Alcotest.(check bool) "vertex" true (Hull2d.contains h (pt2 0 4));
  Alcotest.(check bool) "outside" false (Hull2d.contains h (pt2 5 2))

let test_hull2d_ccw () =
  let h = Hull2d.of_points [ pt2 0 0; pt2 3 0; pt2 0 3 ] in
  let v = Array.of_list (Hull2d.vertices h) in
  let area2 = ref 0.0 in
  let n = Array.length v in
  for i = 0 to n - 1 do
    let a = v.(i) and b = v.((i + 1) mod n) in
    area2 := !area2 +. ((a.(0) *. b.(1)) -. (b.(0) *. a.(1)))
  done;
  Alcotest.(check bool) "counter-clockwise orientation" true (!area2 > 0.0)

let test_hull2d_collinear_raises () =
  Alcotest.check_raises "collinear input" Hull2d.Degenerate (fun () ->
      ignore (Hull2d.of_points [ pt2 0 0; pt2 1 1; pt2 2 2; pt2 3 3 ]))

let test_hull2d_too_small_raises () =
  Alcotest.check_raises "two points" Hull2d.Degenerate (fun () ->
      ignore (Hull2d.of_points [ pt2 0 0; pt2 1 1 ]))

let test_hull2d_duplicates () =
  let h = Hull2d.of_points [ pt2 0 0; pt2 0 0; pt2 2 0; pt2 2 0; pt2 1 2 ] in
  Alcotest.(check int) "triangle" 3 (List.length (Hull2d.vertices h))

let test_hull2d_collinear_interior_dropped () =
  let h = Hull2d.of_points [ pt2 0 0; pt2 2 0; pt2 4 0; pt2 4 4; pt2 0 4 ] in
  (* (2,0) lies on an edge; it must not be a vertex *)
  Alcotest.(check int) "4 vertices" 4 (List.length (Hull2d.vertices h))

(* ---------------- Hull3d ---------------- *)

let cube_points =
  [ pt3 0 0 0; pt3 2 0 0; pt3 0 2 0; pt3 0 0 2; pt3 2 2 0; pt3 2 0 2; pt3 0 2 2; pt3 2 2 2 ]

let test_hull3d_cube () =
  let h = Hull3d.of_points (pt3 1 1 1 :: cube_points) in
  Alcotest.(check int) "8 extreme vertices" 8 (List.length (Hull3d.vertices h));
  Alcotest.(check (float 1e-6)) "volume" 8.0 (Hull3d.volume h);
  Alcotest.(check bool) "interior point" true (Hull3d.contains h (pt3 1 1 1));
  Alcotest.(check bool) "face point" true (Hull3d.contains h [| 1.0; 1.0; 0.0 |]);
  Alcotest.(check bool) "outside" false (Hull3d.contains h (pt3 3 1 1))

let test_hull3d_tetra () =
  let h = Hull3d.of_points [ pt3 0 0 0; pt3 6 0 0; pt3 0 6 0; pt3 0 0 6 ] in
  Alcotest.(check int) "4 faces" 4 (List.length (Hull3d.faces h));
  Alcotest.(check (float 1e-6)) "volume" 36.0 (Hull3d.volume h)

let test_hull3d_coplanar_raises () =
  Alcotest.check_raises "coplanar" Hull3d.Degenerate (fun () ->
      ignore (Hull3d.of_points [ pt3 0 0 1; pt3 3 0 1; pt3 0 3 1; pt3 3 3 1 ]))

let test_hull3d_outward_normals () =
  let h = Hull3d.of_points cube_points in
  let c = Hull3d.centroid h in
  List.iter
    (fun (a, b, cc) ->
      let n = Vec.cross3 (Vec.sub b a) (Vec.sub cc a) in
      Alcotest.(check bool) "normal points away from centroid" true
        (Vec.dot n (Vec.sub a c) > 0.0))
    (Hull3d.faces h)

(* ---------------- Hull (generic) ---------------- *)

let test_hull_point () =
  let h = Hull.of_int_points [ [| 3; 4 |]; [| 3; 4 |] ] in
  Alcotest.(check int) "affine dim 0" 0 (Hull.affine_dim h);
  Alcotest.(check int) "lattice" 1 (Hull.lattice_count h);
  Alcotest.(check bool) "contains itself" true (Hull.contains_int h [| 3; 4 |]);
  Alcotest.(check bool) "not neighbour" false (Hull.contains_int h [| 3; 5 |])

let test_hull_segment () =
  let h = Hull.of_int_points [ [| 0; 0 |]; [| 6; 3 |]; [| 2; 1 |] ] in
  Alcotest.(check int) "affine dim 1" 1 (Hull.affine_dim h);
  Alcotest.(check bool) "midpoint on segment" true (Hull.contains_int h [| 4; 2 |]);
  Alcotest.(check bool) "off segment" false (Hull.contains_int h [| 4; 3 |]);
  Alcotest.(check int) "lattice points on segment" 4 (Hull.lattice_count h)

let test_hull_1d () =
  let h = Hull.of_int_points [ [| 2 |]; [| 9 |]; [| 5 |] ] in
  Alcotest.(check int) "segment" 1 (Hull.affine_dim h);
  Alcotest.(check int) "8 lattice points" 8 (Hull.lattice_count h);
  Alcotest.(check (float 1e-9)) "length" 7.0 (Hull.measure h)

let test_hull_flat3 () =
  let h = Hull.of_int_points [ [| 0; 0; 2 |]; [| 4; 0; 2 |]; [| 0; 4; 2 |]; [| 4; 4; 2 |] ] in
  Alcotest.(check int) "planar polygon" 2 (Hull.affine_dim h);
  Alcotest.(check int) "5x5 lattice" 25 (Hull.lattice_count h);
  Alcotest.(check bool) "in-plane interior" true (Hull.contains_int h [| 2; 2; 2 |]);
  Alcotest.(check bool) "off-plane" false (Hull.contains_int h [| 2; 2; 3 |]);
  Alcotest.(check (float 1e-6)) "area" 16.0 (Hull.measure h)

let test_hull_tilted_flat3 () =
  (* plane x + y + z = 4 *)
  let pts = [ [| 4; 0; 0 |]; [| 0; 4; 0 |]; [| 0; 0; 4 |] ] in
  let h = Hull.of_int_points pts in
  Alcotest.(check int) "planar" 2 (Hull.affine_dim h);
  Alcotest.(check bool) "lattice point in plane" true (Hull.contains_int h [| 1; 1; 2 |]);
  Alcotest.(check bool) "off plane" false (Hull.contains_int h [| 1; 1; 1 |])

let test_hull_centroid_and_distances () =
  let a = Hull.of_int_points [ [| 0; 0 |]; [| 2; 0 |]; [| 2; 2 |]; [| 0; 2 |] ] in
  let b = Hull.of_int_points [ [| 6; 0 |]; [| 8; 0 |]; [| 8; 2 |]; [| 6; 2 |] ] in
  Alcotest.(check (array (float 1e-9))) "centroid" [| 1.0; 1.0 |] (Hull.centroid a);
  Alcotest.(check (float 1e-9)) "center distance" 6.0 (Hull.center_distance a b);
  Alcotest.(check (float 1e-9)) "boundary distance" 4.0 (Hull.boundary_distance a b)

let test_hull_merge_covers_both () =
  let a = Hull.of_int_points [ [| 0; 0 |]; [| 1; 0 |]; [| 0; 1 |] ] in
  let b = Hull.of_int_points [ [| 5; 5 |]; [| 6; 5 |]; [| 5; 6 |] ] in
  let m = Hull.merge a b in
  List.iter
    (fun h ->
      List.iter
        (fun v -> Alcotest.(check bool) "merge contains operand vertices" true (Hull.contains m v))
        (Hull.vertices h))
    [ a; b ]

let test_hull_merge_point_into_polygon () =
  let a = Hull.of_int_points [ [| 0; 0 |] ] in
  let b = Hull.of_int_points [ [| 4; 0 |]; [| 4; 4 |]; [| 0; 4 |] ] in
  let m = Hull.merge a b in
  Alcotest.(check int) "full polygon" 2 (Hull.affine_dim m);
  Alcotest.(check bool) "interior of combined hull" true (Hull.contains_int m [| 2; 2 |])

(* property: hull of random int points contains every input point *)
let arb_points_2d =
  QCheck.(list_of_size (Gen.int_range 1 40) (pair (int_range 0 30) (int_range 0 30)))

let qcheck_hull2_contains_inputs =
  QCheck.Test.make ~name:"2D hull contains all inputs" ~count:300 arb_points_2d (fun pts ->
      QCheck.assume (pts <> []);
      let points = List.map (fun (x, y) -> [| x; y |]) pts in
      let h = Hull.of_int_points points in
      List.for_all (fun p -> Hull.contains_int h p) points)

let arb_points_3d =
  QCheck.(list_of_size (Gen.int_range 1 30) (triple (int_range 0 12) (int_range 0 12) (int_range 0 12)))

let qcheck_hull3_contains_inputs =
  QCheck.Test.make ~name:"3D hull contains all inputs" ~count:300 arb_points_3d (fun pts ->
      QCheck.assume (pts <> []);
      let points = List.map (fun (x, y, z) -> [| x; y; z |]) pts in
      let h = Hull.of_int_points points in
      List.for_all (fun p -> Hull.contains_int h p) points)

let qcheck_merge_superset =
  QCheck.Test.make ~name:"merged hull contains both hulls' lattices" ~count:100
    QCheck.(pair arb_points_2d arb_points_2d)
    (fun (p1, p2) ->
      QCheck.assume (p1 <> [] && p2 <> []);
      let mk pts = Hull.of_int_points (List.map (fun (x, y) -> [| x; y |]) pts) in
      let a = mk p1 and b = mk p2 in
      let m = Hull.merge a b in
      let ok = ref true in
      Hull.iter_lattice a (fun p -> if not (Hull.contains_int m p) then ok := false);
      Hull.iter_lattice b (fun p -> if not (Hull.contains_int m p) then ok := false);
      !ok)

let qcheck_lattice_within_bbox =
  QCheck.Test.make ~name:"hull lattice is within its bbox" ~count:200 arb_points_2d (fun pts ->
      QCheck.assume (pts <> []);
      let h = Hull.of_int_points (List.map (fun (x, y) -> [| x; y |]) pts) in
      let b = Hull.bbox h in
      let ok = ref true in
      Hull.iter_lattice h (fun p ->
          if not (Bbox.contains b (Array.map float_of_int p)) then ok := false);
      !ok)

let qcheck_hull_measure_le_bbox =
  QCheck.Test.make ~name:"hull measure bounded by bbox volume" ~count:200 arb_points_2d
    (fun pts ->
      QCheck.assume (List.length pts >= 3);
      let h = Hull.of_int_points (List.map (fun (x, y) -> [| x; y |]) pts) in
      Hull.measure h <= Bbox.volume (Hull.bbox h) +. 1e-6)

(* Hulls of every affine kind, with coordinates reaching below zero:
   a point, a segment, a 1D run, a 2D polygon, a planar polygon in 3D
   (integer combinations of two random directions) and a 3D polytope. *)
let arb_any_hull =
  let open QCheck in
  let gen =
    Gen.(
      let coord = int_range (-6) 14 and step = int_range (-3) 3 in
      let vec d = array_size (return d) step in
      let pt d = array_size (return d) coord in
      int_range 0 5 >>= function
      | 0 -> int_range 2 3 >>= fun d -> pt d >|= fun p -> [ p ]
      | 1 ->
        int_range 2 3 >>= fun d ->
        pt d >>= fun p0 ->
        vec d >>= fun u ->
        list_size (int_range 1 5) (int_range (-4) 4) >|= fun ks ->
        p0 :: List.map (fun k -> Array.mapi (fun i x -> x + (k * u.(i))) p0) ks
      | 2 -> list_size (int_range 1 6) (pt 1)
      | 3 -> list_size (int_range 3 12) (pt 2)
      | 4 ->
        pt 3 >>= fun p0 ->
        vec 3 >>= fun u ->
        vec 3 >>= fun v ->
        list_size (int_range 2 10) (pair (int_range (-3) 3) (int_range (-3) 3)) >|= fun ks ->
        p0 :: List.map (fun (i, j) -> Array.mapi (fun k x -> x + (i * u.(k)) + (j * v.(k))) p0) ks
      | _ -> list_size (int_range 4 14) (pt 3))
  in
  let print pts =
    String.concat " "
      (List.map (fun p -> "(" ^ String.concat "," (Array.to_list (Array.map string_of_int p)) ^ ")") pts)
  in
  make ~print gen

let qcheck_iter_rows_matches_lattice =
  QCheck.Test.make ~name:"iter_rows visits exactly iter_lattice's points" ~count:400 arb_any_hull
    (fun pts ->
      let h = Hull.of_int_points pts in
      let per_point = ref [] and per_row = ref [] in
      Hull.iter_lattice h (fun p -> per_point := Array.to_list p :: !per_point);
      Hull.iter_rows h (fun p len ->
          let last = Array.length p - 1 in
          for k = 0 to len - 1 do
            let q = Array.copy p in
            q.(last) <- p.(last) + k;
            per_row := Array.to_list q :: !per_row
          done);
      List.sort compare !per_point = List.sort compare !per_row)

let suite =
  ( "geometry",
    [ Alcotest.test_case "vec ops" `Quick test_vec_ops;
      Alcotest.test_case "vec cross2" `Quick test_vec_cross2;
      Alcotest.test_case "vec cross3" `Quick test_vec_cross3;
      Alcotest.test_case "vec centroid" `Quick test_vec_centroid;
      Alcotest.test_case "bbox of points" `Quick test_bbox_of_points;
      Alcotest.test_case "bbox contains" `Quick test_bbox_contains;
      Alcotest.test_case "bbox lattice" `Quick test_bbox_lattice;
      Alcotest.test_case "bbox lattice fractional bounds" `Quick test_bbox_lattice_fractional;
      Alcotest.test_case "bbox min dist" `Quick test_bbox_min_dist;
      Alcotest.test_case "bbox volume and union" `Quick test_bbox_volume_union;
      Alcotest.test_case "hull2d square" `Quick test_hull2d_square;
      Alcotest.test_case "hull2d ccw orientation" `Quick test_hull2d_ccw;
      Alcotest.test_case "hull2d collinear raises" `Quick test_hull2d_collinear_raises;
      Alcotest.test_case "hull2d too small raises" `Quick test_hull2d_too_small_raises;
      Alcotest.test_case "hull2d duplicates" `Quick test_hull2d_duplicates;
      Alcotest.test_case "hull2d drops edge-interior vertices" `Quick
        test_hull2d_collinear_interior_dropped;
      Alcotest.test_case "hull3d cube" `Quick test_hull3d_cube;
      Alcotest.test_case "hull3d tetra" `Quick test_hull3d_tetra;
      Alcotest.test_case "hull3d coplanar raises" `Quick test_hull3d_coplanar_raises;
      Alcotest.test_case "hull3d outward normals" `Quick test_hull3d_outward_normals;
      Alcotest.test_case "hull point" `Quick test_hull_point;
      Alcotest.test_case "hull segment" `Quick test_hull_segment;
      Alcotest.test_case "hull 1d" `Quick test_hull_1d;
      Alcotest.test_case "hull planar in 3d" `Quick test_hull_flat3;
      Alcotest.test_case "hull tilted plane in 3d" `Quick test_hull_tilted_flat3;
      Alcotest.test_case "hull centroid and distances" `Quick test_hull_centroid_and_distances;
      Alcotest.test_case "hull merge covers both" `Quick test_hull_merge_covers_both;
      Alcotest.test_case "hull merge point into polygon" `Quick test_hull_merge_point_into_polygon;
      QCheck_alcotest.to_alcotest qcheck_hull2_contains_inputs;
      QCheck_alcotest.to_alcotest qcheck_hull3_contains_inputs;
      QCheck_alcotest.to_alcotest qcheck_merge_superset;
      QCheck_alcotest.to_alcotest qcheck_lattice_within_bbox;
      QCheck_alcotest.to_alcotest qcheck_hull_measure_le_bbox;
      QCheck_alcotest.to_alcotest qcheck_iter_rows_matches_lattice ] )
