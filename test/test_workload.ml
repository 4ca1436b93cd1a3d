(* Tests for the benchmark programs: plan behaviour, usefulness, analytic
   vs exhaustive ground truth, coverage instrumentation, real I/O runs. *)

open Kondo_dataarray
open Kondo_workload

let v2 a b = [| float_of_int a; float_of_int b |]
let v3 a b c = [| float_of_int a; float_of_int b; float_of_int c |]

(* ---------------- CS ---------------- *)

let test_cs1_guard () =
  let p = Stencils.cs ~n:16 1 in
  Alcotest.(check bool) "sx<=sy useful" true (Program.is_useful p (v2 1 2));
  Alcotest.(check bool) "sx>sy rejected" false (Program.is_useful p (v2 3 2));
  Alcotest.(check bool) "negative rejected" false (Program.is_useful p [| -1.0; 2.0 |])

let test_cs1_zero_step_terminates () =
  let p = Stencils.cs ~n:16 1 in
  let set = Program.access p (v2 0 0) in
  Alcotest.(check int) "single 2x2 block" 4 (Index_set.cardinal set)

let test_cs1_walk_indices () =
  (* steps (1,1) from (0,0): blocks at (0,0),(1,1),...,(14,14) *)
  let p = Stencils.cs ~n:16 1 in
  let set = Program.access p (v2 1 1) in
  Alcotest.(check bool) "(0,0)" true (Index_set.mem set [| 0; 0 |]);
  Alcotest.(check bool) "(15,15) from last block" true (Index_set.mem set [| 15; 15 |]);
  Alcotest.(check bool) "(0,2) never touched" false (Index_set.mem set [| 0; 2 |])

let test_cs_access_in_bounds () =
  let p = Stencils.cs ~n:16 3 in
  for sx = 0 to 15 do
    for sy = 0 to 15 do
      Program.iter_access p (v2 sx sy) (fun idx ->
          if not (Shape.in_bounds p.Program.shape idx) then Alcotest.fail "out of bounds access")
    done
  done

let test_cs_variants_distinct () =
  let truth i = Program.ground_truth (Stencils.cs ~n:32 i) in
  let t1 = truth 1 and t2 = truth 2 and t3 = truth 3 in
  Alcotest.(check bool) "CS1 != CS2" false (Index_set.equal t1 t2);
  Alcotest.(check bool) "CS3 != CS1" false (Index_set.equal t3 t1)

let test_cs1_truth_triangularish () =
  (* the paper: accessed x-subscript is at most y-subscript + 2 (strictly,
     +1 with our 0-indexed walk); check no accessed point violates it *)
  let p = Stencils.cs ~n:32 1 in
  let truth = Program.ground_truth p in
  Index_set.iter truth (fun idx ->
      Alcotest.(check bool) "i <= j+1" true (idx.(0) <= idx.(1) + 1))

let test_cs5_two_regions () =
  let p = Stencils.cs ~n:64 5 in
  let truth = Program.ground_truth p in
  (* near-origin window and far corner window are both populated *)
  Alcotest.(check bool) "origin region" true (Index_set.mem truth [| 0; 0 |]);
  Alcotest.(check bool) "far corner region" true (Index_set.mem truth [| 56; 56 |]);
  Alcotest.(check bool) "middle gap" false (Index_set.mem truth [| 40; 20 |])

(* ---------------- PRL / LDC / RDC ---------------- *)

let analytic_matches_exhaustive p =
  let analytic =
    match p.Program.truth with
    | Some pred ->
      let set = Index_set.create p.Program.shape in
      Shape.iter p.Program.shape (fun idx -> if pred idx then Index_set.add set idx);
      set
    | None -> Alcotest.fail "program has no analytic truth"
  in
  let exhaustive = Program.exhaustive_truth p in
  Alcotest.(check int) "same cardinality" (Index_set.cardinal exhaustive) (Index_set.cardinal analytic);
  Alcotest.(check bool) "identical sets" true (Index_set.equal analytic exhaustive)

let test_prl2d_truth () = analytic_matches_exhaustive (Stencils.prl2d ~n:32 ())
let test_ldc2d_truth () = analytic_matches_exhaustive (Stencils.ldc2d ~n:32 ())
let test_rdc2d_truth () = analytic_matches_exhaustive (Stencils.rdc2d ~n:32 ())
let test_prl3d_truth () = analytic_matches_exhaustive (Stencils.prl3d ~m:20 ())
let test_ldc3d_truth () = analytic_matches_exhaustive (Stencils.ldc3d ~m:16 ())
let test_rdc3d_truth () = analytic_matches_exhaustive (Stencils.rdc3d ~m:16 ())

let test_prl_has_hole () =
  let p = Stencils.prl2d ~n:64 () in
  let truth = Program.ground_truth p in
  Alcotest.(check bool) "center is a hole" false (Index_set.mem truth [| 32; 32 |]);
  Alcotest.(check bool) "frame point" true (Index_set.mem truth [| 32 + 15; 32 |])

let test_ldc_two_disjoint_blocks () =
  let p = Stencils.ldc2d ~n:32 () in
  let truth = Program.ground_truth p in
  Alcotest.(check bool) "top-left" true (Index_set.mem truth [| 0; 0 |]);
  Alcotest.(check bool) "bottom-right" true (Index_set.mem truth [| 31; 31 |]);
  Alcotest.(check bool) "center empty" false (Index_set.mem truth [| 16; 16 |]);
  Alcotest.(check bool) "anti-corner empty" false (Index_set.mem truth [| 0; 31 |])

let test_rdc_anti_diagonal () =
  let p = Stencils.rdc2d ~n:32 () in
  let truth = Program.ground_truth p in
  Alcotest.(check bool) "top-right" true (Index_set.mem truth [| 31; 0 |]);
  Alcotest.(check bool) "bottom-left" true (Index_set.mem truth [| 0; 31 |]);
  Alcotest.(check bool) "main-diagonal corners empty" false (Index_set.mem truth [| 0; 0 |])

let test_guard_invalid_region () =
  let p = Stencils.ldc2d ~n:32 () in
  Alcotest.(check bool) "tiny extent not useful" false (Program.is_useful p (v2 2 2));
  Alcotest.(check bool) "valid extent useful" true (Program.is_useful p (v2 5 5))

(* ---------------- ARD / MSI ---------------- *)

let test_ard_geometry () =
  let p = Realapps.ard () in
  let truth = Program.ground_truth p in
  let frac = Index_set.fraction truth in
  (* paper: 97.20% debloat -> ~2.8% accessed *)
  Alcotest.(check bool) "fraction ~2.8%" true (Float.abs (frac -. 0.028) < 0.002);
  Alcotest.(check int) "3 parameters" 3 (Program.arity p)

let test_ard_temporal_param_redundant () =
  let p = Realapps.ard () in
  let a = Program.access p (v3 10 20 0) in
  let b = Program.access p (v3 10 20 100) in
  Alcotest.(check bool) "t0 does not change the accessed set" true (Index_set.equal a b)

let test_msi_geometry () =
  let p = Realapps.msi () in
  let truth = Program.ground_truth p in
  let frac = Index_set.fraction truth in
  (* paper: 96.24% debloat -> ~3.8% accessed *)
  Alcotest.(check bool) "fraction ~3.8%" true (Float.abs (frac -. 0.0385) < 0.003)

let test_msi_truth_small_scale () = analytic_matches_exhaustive (Realapps.msi ~scale:1024 ())

let test_msi_plane_and_line () =
  let p = Realapps.msi () in
  let zlo = int_of_float (fst p.Program.param_space.(0)) in
  let set = Program.access p [| float_of_int zlo; 5.0; 6.0 |] in
  let dims = Shape.dims p.Program.shape in
  (* full plane at zlo plus the spectrum line (one z already in plane) *)
  let win = int_of_float (snd p.Program.param_space.(0)) - zlo + 1 in
  Alcotest.(check int) "plane + line" ((dims.(0) * dims.(1)) + win - 1) (Index_set.cardinal set)

(* ---------------- Idioms (Lofstead / Tang subsetting patterns) -------- *)

let test_plane_truth () = analytic_matches_exhaustive (Idioms.plane ~m:16 ())
let test_subvol_truth () = analytic_matches_exhaustive (Idioms.subvol ~m:16 ())
let test_vars_truth () = analytic_matches_exhaustive (Idioms.varsubset ~vars:8 ~m:12 ())
let test_thresh_truth () = analytic_matches_exhaustive (Idioms.threshold ~m:16 ())

let test_plane_is_planar () =
  let p = Idioms.plane ~m:16 () in
  let set = Program.access p [| 8.0; 1.0 |] in
  Alcotest.(check int) "one full plane" (16 * 16) (Index_set.cardinal set);
  Index_set.iter set (fun idx -> Alcotest.(check int) "fixed z" 8 idx.(2))

let test_plane_strided_subset_of_full () =
  let p = Idioms.plane ~m:16 () in
  let full = Program.access p [| 8.0; 1.0 |] in
  let strided = Program.access p [| 8.0; 3.0 |] in
  Alcotest.(check bool) "strided ⊆ full" true (Index_set.subset strided full);
  Alcotest.(check bool) "strided smaller" true
    (Index_set.cardinal strided < Index_set.cardinal full)

let test_subvol_fixed_size () =
  let p = Idioms.subvol ~m:64 () in
  let a = Program.access p [| 0.0; 0.0; 0.0 |] in
  let b = Program.access p [| 17.0; 5.0; 23.0 |] in
  Alcotest.(check int) "same volume everywhere" (Index_set.cardinal a) (Index_set.cardinal b)

let test_vars_unsupported_variable () =
  let p = Idioms.varsubset ~vars:8 ~m:12 () in
  Alcotest.(check bool) "supported variable useful" true (Program.is_useful p (v2 1 3));
  Alcotest.(check bool) "unsupported variable rejected" false (Program.is_useful p (v2 6 3))

let test_thresh_monotone () =
  (* higher threshold -> smaller region, nested *)
  let p = Idioms.threshold ~m:32 () in
  let lo = Program.access p [| 4.0; 0.0 |] in
  let hi = Program.access p [| 12.0; 0.0 |] in
  Alcotest.(check bool) "nested" true (Index_set.subset hi lo);
  Alcotest.(check bool) "strictly smaller" true (Index_set.cardinal hi < Index_set.cardinal lo)

let test_idioms_kondo_accuracy () =
  (* Kondo should handle each idiom well: recall high, precision decent *)
  let open Kondo_core in
  List.iter
    (fun p ->
      let config = { Config.default with Config.max_iter = 600; stop_iter = 300 } in
      let r = Pipeline.evaluate ~config p in
      let a = Option.get r.Pipeline.accuracy in
      Alcotest.(check bool)
        (Printf.sprintf "%s recall %.3f > 0.9" p.Program.name a.Metrics.recall)
        true (a.Metrics.recall > 0.9);
      Alcotest.(check bool)
        (Printf.sprintf "%s precision %.3f > 0.7" p.Program.name a.Metrics.precision)
        true (a.Metrics.precision > 0.7))
    (Suite.extended ~m:24 ())

(* ---------------- Program generics ---------------- *)

let test_param_count () =
  let p = Stencils.cs ~n:16 1 in
  Alcotest.(check int) "16x16 valuations" 256 (Program.param_count p)

let test_iter_param_space_count () =
  let p = Stencils.ldc2d ~n:16 () in
  let n = ref 0 in
  Program.iter_param_space p (fun _ -> incr n);
  Alcotest.(check int) "matches param_count" (Program.param_count p) !n

let test_clamp_params () =
  let p = Stencils.cs ~n:16 1 in
  Alcotest.(check (array (float 1e-9))) "clamped" [| 0.0; 15.0 |]
    (Program.clamp_params p [| -3.7; 99.0 |])

let test_coverage_edges () =
  let p = Stencils.cs ~n:16 1 in
  let edges = ref [] in
  Program.coverage p (v2 0 0) (fun e -> edges := e :: !edges);
  (* guard edge 1 (useful) + 4 index edges *)
  Alcotest.(check int) "5 edges" 5 (List.length !edges);
  Alcotest.(check bool) "guard useful" true (List.mem 1 !edges);
  let not_useful = ref [] in
  Program.coverage p (v2 5 1) (fun e -> not_useful := e :: !not_useful);
  Alcotest.(check (list int)) "only guard edge 0" [ 0 ] !not_useful

let test_access_equals_iter_access () =
  let p = Stencils.prl2d ~n:32 () in
  let v = v2 6 7 in
  let set = Program.access p v in
  let set2 = Index_set.create p.Program.shape in
  Program.iter_access p v (fun idx -> Index_set.add set2 idx);
  Alcotest.(check bool) "same set" true (Index_set.equal set set2)

let test_run_io_against_file () =
  let p = Stencils.ldc2d ~n:16 () in
  let path = Filename.temp_file "kondo_wl" ".kh5" in
  Datafile.write_for ~path p;
  let f = Kondo_h5.File.open_file path in
  let n = Program.run_io p f (v2 5 5) in
  Alcotest.(check int) "elements read = plan size" (Index_set.cardinal (Program.access p (v2 5 5))) n;
  Kondo_h5.File.close f;
  Sys.remove path

let test_ground_truth_cached () =
  let p = Stencils.cs ~n:16 1 in
  let a = Program.ground_truth p and b = Program.ground_truth p in
  Alcotest.(check bool) "same object" true (a == b)

let test_suite_registry () =
  Alcotest.(check int) "11 micro+synthetic" 11 (List.length (Suite.all11 ~n:16 ~m:8 ()));
  Alcotest.(check int) "17 names" 17 (List.length Suite.names);
  List.iter
    (fun name ->
      match Suite.by_name ~n:16 ~m:8 name with
      | Some p -> Alcotest.(check string) "name matches" name p.Program.name
      | None -> Alcotest.fail ("missing " ^ name))
    Suite.names;
  Alcotest.(check bool) "unknown name" true (Suite.by_name "XYZ" = None)

let test_micro_group () =
  Alcotest.(check string) "CS3 -> CS" "CS" (Suite.micro_group (Stencils.cs ~n:16 3));
  Alcotest.(check string) "PRL3D -> PRL" "PRL" (Suite.micro_group (Stencils.prl3d ~m:8 ()));
  Alcotest.(check string) "ARD is its own group" "ARD" (Suite.micro_group (Realapps.ard ()))

let test_render_ascii () =
  let p = Stencils.ldc2d ~n:32 () in
  let art = Render.ascii ~cols:16 ~rows:16 (Program.ground_truth p) in
  Alcotest.(check bool) "has dense cells" true (String.contains art '#');
  Alcotest.(check bool) "has empty cells" true (String.contains art ' ')

let test_render_overlay () =
  let shape = Shape.create [| 16; 16 |] in
  let a = Index_set.of_list shape [ [| 0; 0 |] ] in
  let b = Index_set.of_list shape [ [| 15; 15 |]; [| 0; 0 |] ] in
  let art = Render.overlay ~cols:16 ~rows:16 shape [ ('a', a); ('b', b) ] in
  Alcotest.(check bool) "later overlay wins contested cells" true (not (String.contains art 'a'));
  Alcotest.(check bool) "marks present" true (String.contains art 'b')

let test_render_3d_mid_slice () =
  let p = Stencils.ldc3d ~m:8 () in
  let art = Render.ascii ~cols:8 ~rows:8 (Program.ground_truth p) in
  (* the middle z-slice of LDC3D shows nothing: corners do not reach z=4 *)
  Alcotest.(check bool) "renders without error" true (String.length art > 0)

let contains_sub s sub =
  let ls = String.length sub and l = String.length s in
  let rec go i = i + ls <= l && (String.sub s i ls = sub || go (i + 1)) in
  go 0

let test_svg_document () =
  let shape = Shape.create [| 8; 8 |] in
  let set = Index_set.of_list shape [ [| 1; 2 |]; [| 3; 4 |] ] in
  let hull = Kondo_geometry.Hull.of_int_points [ [| 0; 0 |]; [| 5; 0 |]; [| 0; 5 |] ] in
  let doc =
    Svg.document ~width:200.0 ~height:200.0
      [ Svg.points set; Svg.hull_outline hull; Svg.marks [ (1.0, 1.0) ] ]
  in
  Alcotest.(check bool) "svg root" true (contains_sub doc "<svg");
  Alcotest.(check bool) "dots rendered" true (contains_sub doc "<circle");
  Alcotest.(check bool) "hull polygon rendered" true (contains_sub doc "<polygon");
  Alcotest.(check bool) "closes" true (contains_sub doc "</svg>")

let test_svg_degenerate_hulls () =
  let point = Kondo_geometry.Hull.of_int_points [ [| 2; 2 |] ] in
  let seg = Kondo_geometry.Hull.of_int_points [ [| 0; 0 |]; [| 4; 4 |] ] in
  let doc = Svg.document ~width:100.0 ~height:100.0 [ Svg.hull_outline point; Svg.hull_outline seg ] in
  Alcotest.(check bool) "point as dot" true (contains_sub doc "<circle");
  Alcotest.(check bool) "segment as line" true (contains_sub doc "<line")

let test_svg_save () =
  let path = Filename.temp_file "kondo_svg" ".svg" in
  let shape = Shape.create [| 4; 4 |] in
  Svg.save path ~width:50.0 ~height:50.0 [ Svg.points (Index_set.of_list shape [ [| 0; 0 |] ]) ];
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check bool) "file starts with svg" true (contains_sub line "<svg");
  Sys.remove path

let test_datafile_attrs () =
  let p = Stencils.ldc2d ~n:8 () in
  let path = Filename.temp_file "kondo_attrs" ".kh5" in
  Datafile.write_for ~path p;
  let f = Kondo_h5.File.open_file path in
  let ds = Kondo_h5.File.find f "data" in
  Alcotest.(check bool) "program attr" true
    (Kondo_h5.Dataset.attr ds "program" = Some (Kondo_h5.Dataset.Str "LDC2D"));
  Alcotest.(check bool) "crc verifies" true (Kondo_h5.File.verify_all f);
  Kondo_h5.File.close f;
  Sys.remove path

let test_with_dataset () =
  let p = Program.with_dataset (Stencils.cs ~n:16 1) "other" in
  Alcotest.(check string) "dataset renamed" "other" p.Program.dataset;
  Alcotest.(check bool) "name disambiguated" true (p.Program.name <> "CS1")

let test_datafile_write_many () =
  let p1 = Program.with_dataset (Stencils.ldc2d ~n:8 ()) "a" in
  let p2 = Program.with_dataset (Stencils.rdc2d ~n:8 ()) "b" in
  let path = Filename.temp_file "kondo_many" ".kh5" in
  Datafile.write_many ~path [ p1; p2 ];
  let f = Kondo_h5.File.open_file path in
  Alcotest.(check int) "two datasets" 2 (List.length (Kondo_h5.File.datasets f));
  Alcotest.(check (float 1e-9)) "values" (Datafile.fill [| 1; 2 |])
    (Kondo_h5.File.read_element f "b" [| 1; 2 |]);
  Kondo_h5.File.close f;
  Sys.remove path

let qcheck_useful_iff_plan_nonempty =
  QCheck.Test.make ~name:"is_useful iff the clipped plan selects something" ~count:200
    QCheck.(pair (int_range 0 31) (int_range 0 31))
    (fun (a, b) ->
      let p = Stencils.cs ~n:32 3 in
      (* walks start at (0, 0); shifted by 32 or 33 they select nothing in
         bounds although the plan is non-empty *)
      let by = 30 + (a mod 4) in
      let shift s = { s with Hyperslab.start = Array.map (fun x -> x + by) s.Hyperslab.start } in
      let shifted = { p with Program.plan = (fun v -> List.map shift (p.Program.plan v)) } in
      let v = v2 a b in
      List.for_all
        (fun p -> Program.is_useful p v = not (Index_set.is_empty (Program.access p v)))
        [ p; shifted ])

let qcheck_access_within_truth =
  QCheck.Test.make ~name:"every in-Θ access lies within ground truth" ~count:100
    QCheck.(pair (int_range 0 31) (int_range 0 31))
    (fun (a, b) ->
      let p = Stencils.prl2d ~n:32 () in
      (* ground truth is defined over Θ: clamp the fuzzed value into it *)
      let v = Program.clamp_params p (v2 a b) in
      let truth = Program.ground_truth p in
      let ok = ref true in
      Program.iter_access p v (fun idx -> if not (Index_set.mem truth idx) then ok := false);
      !ok)

let suite =
  ( "workload",
    [ Alcotest.test_case "CS1 guard" `Quick test_cs1_guard;
      Alcotest.test_case "CS zero step terminates" `Quick test_cs1_zero_step_terminates;
      Alcotest.test_case "CS1 walk indices" `Quick test_cs1_walk_indices;
      Alcotest.test_case "CS accesses stay in bounds" `Quick test_cs_access_in_bounds;
      Alcotest.test_case "CS variants differ" `Quick test_cs_variants_distinct;
      Alcotest.test_case "CS1 truth triangular" `Quick test_cs1_truth_triangularish;
      Alcotest.test_case "CS5 two distant regions" `Quick test_cs5_two_regions;
      Alcotest.test_case "PRL2D analytic = exhaustive" `Quick test_prl2d_truth;
      Alcotest.test_case "LDC2D analytic = exhaustive" `Quick test_ldc2d_truth;
      Alcotest.test_case "RDC2D analytic = exhaustive" `Quick test_rdc2d_truth;
      Alcotest.test_case "PRL3D analytic = exhaustive" `Slow test_prl3d_truth;
      Alcotest.test_case "LDC3D analytic = exhaustive" `Slow test_ldc3d_truth;
      Alcotest.test_case "RDC3D analytic = exhaustive" `Slow test_rdc3d_truth;
      Alcotest.test_case "PRL keeps its hole" `Quick test_prl_has_hole;
      Alcotest.test_case "LDC two disjoint blocks" `Quick test_ldc_two_disjoint_blocks;
      Alcotest.test_case "RDC anti-diagonal" `Quick test_rdc_anti_diagonal;
      Alcotest.test_case "guards create invalid regions" `Quick test_guard_invalid_region;
      Alcotest.test_case "ARD geometry (2.8% accessed)" `Quick test_ard_geometry;
      Alcotest.test_case "ARD temporal param redundant" `Quick test_ard_temporal_param_redundant;
      Alcotest.test_case "MSI geometry (3.8% accessed)" `Quick test_msi_geometry;
      Alcotest.test_case "MSI analytic = exhaustive (small)" `Slow test_msi_truth_small_scale;
      Alcotest.test_case "MSI plane and line" `Quick test_msi_plane_and_line;
      Alcotest.test_case "PLANE analytic = exhaustive" `Slow test_plane_truth;
      Alcotest.test_case "SUBVOL analytic = exhaustive" `Slow test_subvol_truth;
      Alcotest.test_case "VARS analytic = exhaustive" `Slow test_vars_truth;
      Alcotest.test_case "THRESH analytic = exhaustive" `Slow test_thresh_truth;
      Alcotest.test_case "PLANE reads one plane" `Quick test_plane_is_planar;
      Alcotest.test_case "PLANE strided subset" `Quick test_plane_strided_subset_of_full;
      Alcotest.test_case "SUBVOL fixed size" `Quick test_subvol_fixed_size;
      Alcotest.test_case "VARS unsupported variable" `Quick test_vars_unsupported_variable;
      Alcotest.test_case "THRESH monotone nesting" `Quick test_thresh_monotone;
      Alcotest.test_case "idioms: Kondo accuracy" `Slow test_idioms_kondo_accuracy;
      Alcotest.test_case "param count" `Quick test_param_count;
      Alcotest.test_case "iter_param_space count" `Quick test_iter_param_space_count;
      Alcotest.test_case "clamp params" `Quick test_clamp_params;
      Alcotest.test_case "coverage edges" `Quick test_coverage_edges;
      Alcotest.test_case "access = iter_access" `Quick test_access_equals_iter_access;
      Alcotest.test_case "run_io against KH5 file" `Quick test_run_io_against_file;
      Alcotest.test_case "ground truth cached" `Quick test_ground_truth_cached;
      Alcotest.test_case "suite registry" `Quick test_suite_registry;
      Alcotest.test_case "micro groups" `Quick test_micro_group;
      Alcotest.test_case "ascii render" `Quick test_render_ascii;
      Alcotest.test_case "overlay render" `Quick test_render_overlay;
      Alcotest.test_case "3d mid-slice render" `Quick test_render_3d_mid_slice;
      Alcotest.test_case "svg document" `Quick test_svg_document;
      Alcotest.test_case "svg degenerate hulls" `Quick test_svg_degenerate_hulls;
      Alcotest.test_case "svg save" `Quick test_svg_save;
      Alcotest.test_case "datafile provenance attrs" `Quick test_datafile_attrs;
      Alcotest.test_case "with_dataset" `Quick test_with_dataset;
      Alcotest.test_case "datafile write_many" `Quick test_datafile_write_many;
      QCheck_alcotest.to_alcotest qcheck_useful_iff_plan_nonempty;
      QCheck_alcotest.to_alcotest qcheck_access_within_truth ] )
