(* Bechamel micro-benchmarks of the performance-critical substrates. *)

open Bechamel
open Toolkit

let rng = Kondo_prng.Rng.create 2024

let random_points_2d n range =
  List.init n (fun _ -> [| Kondo_prng.Rng.int rng range; Kondo_prng.Rng.int rng range |])

let random_points_3d n range =
  List.init n (fun _ ->
      [| Kondo_prng.Rng.int rng range;
         Kondo_prng.Rng.int rng range;
         Kondo_prng.Rng.int rng range |])

let hull2d_points = random_points_2d 1000 512
let hull3d_points = random_points_3d 400 64

let test_hull2d =
  Test.make ~name:"hull2d-1000pts" (Staged.stage (fun () -> Kondo_geometry.Hull.of_int_points hull2d_points))

let test_hull3d =
  Test.make ~name:"hull3d-400pts" (Staged.stage (fun () -> Kondo_geometry.Hull.of_int_points hull3d_points))

let hull_a = Kondo_geometry.Hull.of_int_points (random_points_2d 200 64)
let hull_b = Kondo_geometry.Hull.of_int_points (List.map (fun p -> [| p.(0) + 70; p.(1) |]) (random_points_2d 200 64))

let test_hull_merge =
  Test.make ~name:"hull-merge" (Staged.stage (fun () -> Kondo_geometry.Hull.merge hull_a hull_b))

let test_btree_insert =
  Test.make ~name:"interval-btree-insert-10k"
    (Staged.stage (fun () ->
         let t = Kondo_interval.Interval_btree.create () in
         for i = 0 to 9_999 do
           Kondo_interval.Interval_btree.insert t
             (Kondo_interval.Interval.make (i * 7 mod 65536) ((i * 7 mod 65536) + 16))
             i
         done;
         t))

let query_tree =
  let t = Kondo_interval.Interval_btree.create () in
  for i = 0 to 99_999 do
    Kondo_interval.Interval_btree.insert t
      (Kondo_interval.Interval.make (i * 13 mod 1_000_000) ((i * 13 mod 1_000_000) + 32))
      i
  done;
  t

let test_btree_query =
  Test.make ~name:"interval-btree-stab-100k"
    (Staged.stage (fun () -> Kondo_interval.Interval_btree.stab query_tree 500_000))

let bitset_a = Kondo_dataarray.Bitset.create 1_000_000
let bitset_b = Kondo_dataarray.Bitset.create 1_000_000

let () =
  for i = 0 to 999_999 do
    if i mod 3 = 0 then Kondo_dataarray.Bitset.set bitset_a i;
    if i mod 5 = 0 then Kondo_dataarray.Bitset.set bitset_b i
  done

let test_bitset_inter =
  Test.make ~name:"bitset-inter-1M"
    (Staged.stage (fun () -> Kondo_dataarray.Bitset.inter_cardinal bitset_a bitset_b))

let kh5_bytes =
  let p = Kondo_workload.Stencils.cs ~n:128 1 in
  Kondo_workload.Datafile.bytes_for p

let kh5_file = Kondo_h5.File.open_port (Kondo_audit.Io_port.of_bytes ~path:"mem" kh5_bytes)

let kh5_audited =
  let tracer = Kondo_audit.Tracer.create () in
  Kondo_h5.File.open_port
    (Kondo_audit.Tracer.wrap tracer ~pid:1 (Kondo_audit.Io_port.of_bytes ~path:"mem" kh5_bytes))

let row_slab = Kondo_dataarray.Hyperslab.block_at [| 64; 0 |] [| 1; 128 |]

let test_kh5_read =
  Test.make ~name:"kh5-row-read" (Staged.stage (fun () -> Kondo_h5.File.read_slab kh5_file "data" row_slab (fun _ _ -> ())))

let test_kh5_read_audited =
  Test.make ~name:"kh5-row-read-audited"
    (Staged.stage (fun () -> Kondo_h5.File.read_slab kh5_audited "data" row_slab (fun _ _ -> ())))

let blob = Bytes.init 262_144 (fun i -> Char.chr (i * 131 mod 256))

let test_cdc =
  Test.make ~name:"merkle-chunk-256K" (Staged.stage (fun () -> Kondo_container.Merkle.chunk_bytes blob))

let fuzz_program = Kondo_workload.Stencils.ldc2d ~n:64 ()

let test_debloat_test =
  Test.make ~name:"debloat-test-eval"
    (Staged.stage (fun () -> Kondo_workload.Program.access fuzz_program [| 12.0; 12.0 |]))

(* Run-length kernels: a 64^3 block of a 96^3 set is 4,096 runs of 64
   elements; one 3D hull of 400 points rasterized by rows.  The element
   and point variants are the loops the kernels replace. *)
let slab_set = Kondo_dataarray.Index_set.create (Kondo_dataarray.Shape.create [| 96; 96; 96 |])
let cube_slab = Kondo_dataarray.Hyperslab.block_at [| 8; 8; 8 |] [| 64; 64; 64 |]
let () = Kondo_dataarray.Index_set.add_slab slab_set cube_slab

let test_add_slab =
  Test.make ~name:"index-set-add-slab-64^3"
    (Staged.stage (fun () -> Kondo_dataarray.Index_set.add_slab slab_set cube_slab))

let test_add_elements =
  Test.make ~name:"index-set-add-elements-64^3"
    (Staged.stage (fun () ->
         Kondo_dataarray.Hyperslab.iter ~clip:(Kondo_dataarray.Index_set.shape slab_set) cube_slab
           (fun idx -> Kondo_dataarray.Index_set.add slab_set idx)))

let test_covers_slab =
  Test.make ~name:"index-set-covers-slab-64^3"
    (Staged.stage (fun () -> Kondo_dataarray.Index_set.covers_slab slab_set cube_slab))

let raster_shape = Kondo_dataarray.Shape.create [| 64; 64; 64 |]
let raster_hull = Kondo_geometry.Hull.of_int_points hull3d_points

let test_rasterize_rows =
  Test.make ~name:"rasterize-rows-hull3d"
    (Staged.stage (fun () -> Kondo_core.Carver.rasterize raster_shape [ raster_hull ]))

let test_rasterize_points =
  Test.make ~name:"rasterize-points-hull3d"
    (Staged.stage (fun () ->
         let out = Kondo_dataarray.Index_set.create raster_shape in
         Kondo_geometry.Hull.iter_lattice raster_hull (fun idx ->
             ignore (Kondo_dataarray.Index_set.add_if_in_bounds out idx));
         out))

(* Interval sets at the scale of MSI's default run table (~51,000 kept
   runs): bulk construction from shuffled input, a merge of two
   interleaved sets, and reopening a debloated file with 50,000 runs. *)
let spread_intervals n ~phase =
  List.init n (fun i -> Kondo_interval.Interval.make ((32 * i) + phase) ((32 * i) + phase + 8))

let shuffled_50k =
  let a = Array.of_list (spread_intervals 50_000 ~phase:0) in
  Kondo_prng.Rng.shuffle_in_place rng a;
  Array.to_list a

let test_set_of_list =
  Test.make ~name:"interval-set-of-list-50k"
    (Staged.stage (fun () -> Kondo_interval.Interval_set.of_list shuffled_50k))

let union_a = Kondo_interval.Interval_set.of_sorted (spread_intervals 50_000 ~phase:0)
let union_b = Kondo_interval.Interval_set.of_sorted (spread_intervals 50_000 ~phase:12)

let test_set_union =
  Test.make ~name:"interval-set-union-50k"
    (Staged.stage (fun () -> Kondo_interval.Interval_set.union union_a union_b))

(* Built on first use (it writes two temporary files), not at start-up. *)
let sparse_kh5_bytes =
  lazy
    (let n = 50_000 in
     let ds =
       Kondo_h5.Dataset.dense ~name:"data" ~dtype:Kondo_dataarray.Dtype.Float64
         ~shape:(Kondo_dataarray.Shape.create [| 2 * n |]) ()
     in
     let src = Filename.temp_file "kondo_micro" ".kh5" in
     let dst = Filename.temp_file "kondo_micro" ".kh5" in
     Kondo_h5.Writer.write src [ (ds, fun idx -> float_of_int idx.(0)) ];
     let f = Kondo_h5.File.open_file src in
     let keep =
       Kondo_interval.Interval_set.of_sorted
         (List.init n (fun i -> Kondo_interval.Interval.make (16 * i) ((16 * i) + 8)))
     in
     Kondo_h5.Writer.write_debloated dst ~source:f ~keep:(fun _ -> keep);
     Kondo_h5.File.close f;
     let b = In_channel.with_open_bin dst In_channel.input_all in
     Sys.remove src;
     Sys.remove dst;
     Bytes.of_string b)

let test_kh5_open_sparse =
  Test.make ~name:"kh5-open-sparse-50k"
    (Staged.stage (fun () ->
         Kondo_h5.File.open_port
           (Kondo_audit.Io_port.of_bytes ~path:"mem" (Lazy.force sparse_kh5_bytes))))

(* The store read path's two hits: an element-sized read served from a
   warm client cache over loopback, and element reads that hit the kept
   runs of a debloated file on disk. *)
let warm_client =
  lazy
    (let open Kondo_store in
     let server = Server.create ~store:(Block_store.create ()) () in
     let m =
       Server.add_blob server ~name:"blob" (Bytes.init (64 * 4096) (fun i -> Char.chr (i land 0xFF)))
     in
     let client =
       Client.connect
         ~cache:(Cache.create ~budget_bytes:(1024 * 1024) ())
         (Transport.loopback ~handle:(Server.handle server))
     in
     ignore (Client.read_bytes client m ~offset:0 ~length:m.Chunk.total_len);
     (client, m))

let test_client_read_cached =
  Test.make ~name:"client-read-8b-cached"
    (Staged.stage (fun () ->
         let client, m = Lazy.force warm_client in
         Kondo_store.Client.read_bytes client m ~offset:123_456 ~length:8))

(* The file is unlinked once open; the open port keeps it readable. *)
let sparse_kh5_on_disk =
  lazy
    (let path = Filename.temp_file "kondo_micro" ".kh5" in
     Out_channel.with_open_bin path (fun oc -> output_bytes oc (Lazy.force sparse_kh5_bytes));
     let f = Kondo_h5.File.open_file path in
     Sys.remove path;
     f)

let test_kh5_read_element_sparse =
  Test.make ~name:"kh5-read-element-sparse"
    (Staged.stage (fun () ->
         (* element 2i is kept, at the start of the i-th run *)
         Kondo_h5.File.read_element (Lazy.force sparse_kh5_on_disk) "data" [| 50_000 |]))

let tests =
  Test.make_grouped ~name:"kondo"
    [ test_hull2d;
      test_hull3d;
      test_hull_merge;
      test_btree_insert;
      test_btree_query;
      test_bitset_inter;
      test_kh5_read;
      test_kh5_read_audited;
      test_cdc;
      test_debloat_test;
      test_add_slab;
      test_add_elements;
      test_covers_slab;
      test_rasterize_rows;
      test_rasterize_points;
      test_set_of_list;
      test_set_union;
      test_kh5_open_sparse;
      test_client_read_cached;
      test_kh5_read_element_sparse ]

let run () =
  Exp_common.header "Microbench" "Bechamel micro-benchmarks of the substrates (ns/run, OLS fit)";
  ignore (Lazy.force warm_client);
  ignore (Lazy.force sparse_kh5_on_disk);
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with Some [ e ] -> e | Some (e :: _) -> e | _ -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Printf.printf "  %-36s %14s\n" name "n/a"
      else if ns > 1_000_000.0 then Printf.printf "  %-36s %11.2f ms\n" name (ns /. 1e6)
      else if ns > 1_000.0 then Printf.printf "  %-36s %11.2f us\n" name (ns /. 1e3)
      else Printf.printf "  %-36s %11.0f ns\n" name ns)
    rows
