(* Tests for the KH5 file format: writer/reader roundtrips, hyperslab
   reads, sparse (debloated) files, corruption handling. *)

open Kondo_dataarray
open Kondo_interval
open Kondo_h5

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("kondo_test_" ^ name)

let fill idx = float_of_int ((idx.(0) * 1000) + if Array.length idx > 1 then idx.(1) else 0)

let mk_dense ?(name = "data") ?(dtype = Dtype.Float64) ?layout dims =
  Dataset.dense ~name ~dtype ~shape:(Shape.create dims) ?layout ()

let test_roundtrip_contiguous () =
  let path = tmp "rt.kh5" in
  let ds = mk_dense [| 6; 7 |] in
  Writer.write path [ (ds, fill) ];
  let f = File.open_file path in
  Shape.iter ds.Dataset.shape (fun idx ->
      Alcotest.(check (float 1e-9)) "value" (fill idx) (File.read_element f "data" idx));
  File.close f

let test_roundtrip_chunked () =
  let path = tmp "rt_chunked.kh5" in
  let ds = mk_dense ~layout:(Layout.Chunked [| 4; 3 |]) [| 6; 7 |] in
  Writer.write path [ (ds, fill) ];
  let f = File.open_file path in
  Shape.iter ds.Dataset.shape (fun idx ->
      Alcotest.(check (float 1e-9)) "value" (fill idx) (File.read_element f "data" idx));
  File.close f

let test_roundtrip_all_dtypes () =
  List.iter
    (fun dtype ->
      let path = tmp ("dt_" ^ Dtype.to_string dtype ^ ".kh5") in
      let ds = mk_dense ~dtype [| 3; 4 |] in
      Writer.write path [ (ds, fill) ];
      let f = File.open_file path in
      Shape.iter ds.Dataset.shape (fun idx ->
          Alcotest.(check (float 1e-6)) (Dtype.to_string dtype) (fill idx)
            (File.read_element f "data" idx));
      File.close f)
    Dtype.all

let test_multiple_datasets () =
  let path = tmp "multi.kh5" in
  let a = mk_dense ~name:"a" [| 2; 2 |] in
  let b = mk_dense ~name:"b" ~dtype:Dtype.Int32 [| 5 |] in
  Writer.write path [ (a, fill); (b, fun idx -> float_of_int (idx.(0) * 2)) ];
  let f = File.open_file path in
  Alcotest.(check (list string)) "order preserved" [ "a"; "b" ]
    (List.map (fun d -> d.Dataset.name) (File.datasets f));
  Alcotest.(check (float 1e-9)) "b value" 6.0 (File.read_element f "b" [| 3 |]);
  File.close f

let test_duplicate_names_rejected () =
  let a = mk_dense ~name:"x" [| 2 |] in
  Alcotest.check_raises "duplicates" (Invalid_argument "Writer.write: duplicate dataset names")
    (fun () -> ignore (Writer.write_bytes [ (a, fill); (a, fill) ]))

let test_unknown_dataset () =
  let path = tmp "unknown.kh5" in
  Writer.write path [ (mk_dense [| 2; 2 |], fill) ];
  let f = File.open_file path in
  Alcotest.check_raises "Not_found" Not_found (fun () -> ignore (File.find f "nope"));
  File.close f

let test_corrupt_magic () =
  let path = tmp "corrupt.kh5" in
  let oc = open_out_bin path in
  output_string oc "NOTKH5xxxxxxxxxxxxx";
  close_out oc;
  Alcotest.check_raises "bad magic" (Binio.Corrupt "bad magic") (fun () ->
      ignore (File.open_file path))

let test_truncated_file () =
  let path = tmp "trunc.kh5" in
  let oc = open_out_bin path in
  output_string oc "KH5";
  close_out oc;
  Alcotest.check_raises "truncated" (Binio.Corrupt "truncated superblock") (fun () ->
      ignore (File.open_file path))

let test_read_slab_matches_elementwise () =
  let path = tmp "slab.kh5" in
  let ds = mk_dense [| 8; 8 |] in
  Writer.write path [ (ds, fill) ];
  let f = File.open_file path in
  let slab = Hyperslab.make ~start:[| 1; 2 |] ~stride:[| 3; 2 |] ~count:[| 2; 3 |] ~block:[| 2; 1 |] () in
  let seen = ref [] in
  File.read_slab f "data" slab (fun idx v ->
      Alcotest.(check (float 1e-9)) "slab value" (fill idx) v;
      seen := Array.copy idx :: !seen);
  Alcotest.(check int) "all selected" (Hyperslab.nelems slab) (List.length !seen);
  File.close f

let test_read_slab_clips () =
  let path = tmp "clip.kh5" in
  Writer.write path [ (mk_dense [| 4; 4 |], fill) ];
  let f = File.open_file path in
  let n = ref 0 in
  File.read_slab f "data" (Hyperslab.block_at [| 2; 2 |] [| 4; 4 |]) (fun _ _ -> incr n);
  Alcotest.(check int) "clipped" 4 !n;
  File.close f

let test_slab_read_batches () =
  (* a dense row read should issue one pread for the row, not one per
     element *)
  let path = tmp "batch.kh5" in
  Writer.write path [ (mk_dense [| 4; 16 |], fill) ];
  let tracer = Kondo_audit.Tracer.create () in
  let f = File.open_file ~tracer path in
  let before = Kondo_audit.Tracer.event_count tracer in
  File.read_slab f "data" (Hyperslab.block_at [| 1; 0 |] [| 1; 16 |]) (fun _ _ -> ());
  let reads = Kondo_audit.Tracer.event_count tracer - before in
  Alcotest.(check int) "single batched read" 1 reads;
  File.close f

let test_mean_slab () =
  let path = tmp "mean.kh5" in
  Writer.write path [ (mk_dense [| 2; 2 |], fun idx -> float_of_int (idx.(0) + idx.(1))) ];
  let f = File.open_file path in
  Alcotest.(check (float 1e-9)) "mean" 1.0
    (File.mean_slab f "data" (Hyperslab.block_at [| 0; 0 |] [| 2; 2 |]));
  File.close f

let debloated_pair ~keep_rows () =
  let src = tmp "deb_src.kh5" and dst = tmp "deb_dst.kh5" in
  let ds = mk_dense [| 8; 8 |] in
  Writer.write src [ (ds, fill) ];
  let f = File.open_file src in
  let esz = Dtype.size Dtype.Float64 in
  let keep _ =
    Interval_set.of_list
      (List.map (fun r -> Interval.make (r * 8 * esz) ((r + 1) * 8 * esz)) keep_rows)
  in
  Writer.write_debloated dst ~source:f ~keep;
  File.close f;
  (src, dst)

let test_debloated_reads_kept_data () =
  let _, dst = debloated_pair ~keep_rows:[ 2; 5 ] () in
  let d = File.open_file dst in
  List.iter
    (fun r ->
      for c = 0 to 7 do
        Alcotest.(check (float 1e-9)) "kept row" (fill [| r; c |]) (File.read_element d "data" [| r; c |])
      done)
    [ 2; 5 ];
  File.close d

let test_debloated_missing_raises () =
  let _, dst = debloated_pair ~keep_rows:[ 2 ] () in
  let d = File.open_file dst in
  (try
     ignore (File.read_element d "data" [| 0; 0 |]);
     Alcotest.fail "expected Data_missing"
   with File.Data_missing m ->
     Alcotest.(check string) "dataset" "data" m.File.dataset;
     Alcotest.(check (array int)) "index" [| 0; 0 |] m.File.index);
  File.close d

let test_debloated_smaller () =
  let src, dst = debloated_pair ~keep_rows:[ 1 ] () in
  let s = File.open_file src and d = File.open_file dst in
  Alcotest.(check bool) "smaller file" true (File.file_size d < File.file_size s);
  let ds = File.find d "data" in
  Alcotest.(check bool) "marked sparse" true (Dataset.is_sparse ds);
  Alcotest.(check int) "stored bytes = one row" (8 * 8) (Dataset.stored_bytes ds);
  File.close s;
  File.close d

let test_debloated_roundtrip_reopen () =
  (* the sparse run table survives a write/parse cycle *)
  let _, dst = debloated_pair ~keep_rows:[ 0; 7 ] () in
  let d = File.open_file dst in
  (match (File.find d "data").Dataset.storage with
  | Dataset.Sparse keep -> Alcotest.(check int) "two runs" 2 (Interval_set.cardinal keep)
  | Dataset.Dense -> Alcotest.fail "expected sparse");
  File.close d

let test_read_raw () =
  let path = tmp "raw.kh5" in
  Writer.write path [ (mk_dense [| 2; 2 |], fill) ];
  let f = File.open_file path in
  let b = File.read_raw f "data" (Interval.make 0 8) in
  Alcotest.(check (float 1e-9)) "decoded first element" (fill [| 0; 0 |])
    (Dtype.decode Dtype.Float64 b 0);
  File.close f

let test_align_keep_rounds_to_elements () =
  (* a keep range cutting an element in half must still allow reading it *)
  let src = tmp "align_src.kh5" and dst = tmp "align_dst.kh5" in
  Writer.write src [ (mk_dense [| 4 |], fill) ];
  let f = File.open_file src in
  (* bytes 4..12 straddle elements 0 and 1 (8-byte floats) *)
  Writer.write_debloated dst ~source:f ~keep:(fun _ -> Interval_set.of_list [ Interval.make 4 12 ]);
  File.close f;
  let d = File.open_file dst in
  Alcotest.(check (float 1e-9)) "element 0" (fill [| 0 |]) (File.read_element d "data" [| 0 |]);
  Alcotest.(check (float 1e-9)) "element 1" (fill [| 1 |]) (File.read_element d "data" [| 1 |]);
  File.close d

let test_write_bytes_equals_file () =
  let path = tmp "wb.kh5" in
  let ds = mk_dense [| 3; 3 |] in
  Writer.write path [ (ds, fill) ];
  let mem = Writer.write_bytes [ (ds, fill) ] in
  let ic = open_in_bin path in
  let disk = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "identical bytes" disk (Bytes.to_string mem)

let test_attributes_roundtrip () =
  let path = tmp "attrs.kh5" in
  let attrs =
    [ ("units", Dataset.Str "kelvin"); ("scale", Dataset.Num 0.25); ("note", Dataset.Str "") ]
  in
  let ds = Dataset.dense ~name:"data" ~dtype:Dtype.Float64 ~shape:(Shape.create [| 2; 2 |]) ~attrs () in
  Writer.write path [ (ds, fill) ];
  let f = File.open_file path in
  let got = File.find f "data" in
  Alcotest.(check int) "attr count" 3 (List.length got.Dataset.attrs);
  Alcotest.(check bool) "string attr" true (Dataset.attr got "units" = Some (Dataset.Str "kelvin"));
  Alcotest.(check bool) "numeric attr" true (Dataset.attr got "scale" = Some (Dataset.Num 0.25));
  Alcotest.(check bool) "missing attr" true (Dataset.attr got "nope" = None);
  File.close f

let test_crc_verifies_clean_file () =
  let path = tmp "crc_ok.kh5" in
  Writer.write path [ (mk_dense [| 6; 6 |], fill) ];
  let f = File.open_file path in
  Alcotest.(check bool) "verify" true (File.verify f "data");
  Alcotest.(check bool) "verify_all" true (File.verify_all f);
  File.close f

let test_crc_detects_corruption () =
  let path = tmp "crc_bad.kh5" in
  Writer.write path [ (mk_dense [| 6; 6 |], fill) ];
  (* flip one byte of the data section (the last byte of the file) *)
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let all = Bytes.create n in
  really_input ic all 0 n;
  close_in ic;
  Bytes.set all (n - 1) (Char.chr (Char.code (Bytes.get all (n - 1)) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc all;
  close_out oc;
  let f = File.open_file path in
  Alcotest.(check bool) "corruption detected" false (File.verify f "data");
  File.close f

let test_crc_on_debloated () =
  let _, dst = debloated_pair ~keep_rows:[ 1; 4 ] () in
  let f = File.open_file dst in
  Alcotest.(check bool) "sparse section verifies" true (File.verify_all f);
  File.close f

(* A one-dataset sparse KH5 image with a hand-written run table: 8
   Float64 elements, [stored_len] zero bytes of data. *)
let sparse_image ~stored_len runs =
  let header data_off =
    let b = Buffer.create 128 in
    Buffer.add_string b Writer.magic;
    Binio.u32 b 0;
    Binio.u32 b 1;
    Binio.str16 b "data";
    Binio.u8 b (Dtype.code Dtype.Float64);
    Binio.u8 b 1;
    Binio.u32 b 8;
    Binio.u8 b 0 (* contiguous *);
    Binio.u8 b 1 (* sparse *);
    Binio.u64 b data_off;
    Binio.u64 b stored_len;
    Binio.u32 b (List.length runs);
    List.iter
      (fun (lo, hi) ->
        Binio.u64 b lo;
        Binio.u64 b hi)
      runs;
    Binio.u16 b 0 (* attributes *);
    Binio.u32 b 0 (* crc *);
    let out = Buffer.to_bytes b in
    Bytes.set_int32_le out 4 (Int32.of_int (Bytes.length out));
    out
  in
  let hlen = Bytes.length (header 0) in
  let img = Bytes.cat (header hlen) (Bytes.make (max 0 stored_len) '\000') in
  File.open_port (Kondo_audit.Io_port.of_bytes ~path:"hand" img)

let test_run_table_validated () =
  let d = sparse_image ~stored_len:16 [ (0, 8); (16, 24) ] in
  Alcotest.(check (float 0.)) "kept element" 0.0 (File.read_element d "data" [| 2 |]);
  Alcotest.(check bool) "gap is missing" true
    (match File.read_element d "data" [| 1 |] with
    | _ -> false
    | exception File.Data_missing _ -> true);
  let rejects what msg ~stored_len runs =
    Alcotest.check_raises what (Binio.Corrupt msg) (fun () -> ignore (sparse_image ~stored_len runs))
  in
  let order = "runs unsorted or touching" and sum = "run lengths do not sum to stored length" in
  rejects "empty run" "empty run" ~stored_len:8 [ (0, 8); (16, 16) ];
  rejects "reversed run" "empty run" ~stored_len:8 [ (8, 0) ];
  rejects "unsorted" order ~stored_len:16 [ (16, 24); (0, 8) ];
  rejects "overlapping" order ~stored_len:32 [ (0, 16); (8, 24) ];
  rejects "touching" order ~stored_len:16 [ (0, 8); (8, 16) ];
  rejects "duplicate" order ~stored_len:16 [ (0, 8); (0, 8) ];
  rejects "sum short of stored_len" sum ~stored_len:24 [ (0, 8); (16, 24) ];
  rejects "sum past stored_len" sum ~stored_len:8 [ (0, 8); (16, 24) ]

(* The writer's run table before bulk construction: clip, round out and
   [add] one interval at a time. *)
let add_fold_runs ds keep =
  let esz = Dtype.size ds.Dataset.dtype and limit = Dataset.logical_bytes ds in
  List.fold_left
    (fun acc iv ->
      let lo = max 0 iv.Interval.lo and hi = min limit iv.Interval.hi in
      if lo >= hi then acc
      else
        Interval_set.add acc
          (Interval.make (lo / esz * esz) (min limit ((hi + esz - 1) / esz * esz))))
    Interval_set.empty (Interval_set.to_list keep)

let reopened_runs dst =
  let d = File.open_file dst in
  let runs =
    match (File.find d "data").Dataset.storage with
    | Dataset.Sparse keep -> Interval_set.to_list keep
    | Dataset.Dense -> Alcotest.fail "expected sparse"
  in
  File.close d;
  runs

let check_runs_parity ds keep_list =
  let src = tmp "parity_src.kh5" and dst = tmp "parity_dst.kh5" in
  Writer.write src [ (ds, fill) ];
  let f = File.open_file src in
  let keep = Interval_set.of_list keep_list in
  Writer.write_debloated dst ~source:f ~keep:(fun _ -> keep);
  File.close f;
  Interval_set.to_list (add_fold_runs ds keep) = reopened_runs dst

let test_run_table_parity_cases () =
  (* 8-byte elements; the contiguous section is 128 bytes, the chunked
     one 288 (chunk padding included) *)
  let iv = Interval.make in
  List.iter
    (fun ds ->
      List.iter
        (fun (what, keep) -> Alcotest.(check bool) what true (check_runs_parity ds keep))
        [ ("unaligned", [ iv 3 13; iv 30 31 ]);
          ("overlap only once rounded", [ iv 1 3; iv 5 7 ]);
          ("touch only once rounded", [ iv 1 7; iv 9 20 ]);
          ("partly outside", [ iv (-5) 4; iv 120 200; iv 285 400 ]);
          ("fully outside", [ iv (-10) (-2); iv 400 500 ]);
          ("empty", []) ])
    [ mk_dense [| 16 |]; mk_dense ~layout:(Layout.Chunked [| 3; 3 |]) [| 4; 4 |] ]

let qcheck_run_table_parity =
  QCheck.Test.make ~name:"write_debloated run table equals the add-fold reference" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 12) (pair (int_range (-20) 150) (int_range 0 30)))
    (fun l ->
      check_runs_parity (mk_dense [| 16 |])
        (List.map (fun (lo, sz) -> Interval.of_event ~offset:lo ~size:sz) l))

let test_many_runs_roundtrip () =
  (* 100,000 single-element runs: milliseconds with linear-time run
     tables, many minutes with quadratic ones *)
  let n = 100_000 in
  let src = tmp "many_src.kh5" and dst = tmp "many_dst.kh5" in
  let ds = mk_dense [| 2 * n |] in
  Writer.write src [ (ds, fill) ];
  let f = File.open_file src in
  let keep = Interval_set.of_list (List.init n (fun i -> Interval.make (16 * i) ((16 * i) + 8))) in
  Writer.write_debloated dst ~source:f ~keep:(fun _ -> keep);
  File.close f;
  let d = File.open_file dst in
  let kept = File.find d "data" in
  (match kept.Dataset.storage with
  | Dataset.Sparse k -> Alcotest.(check int) "runs" n (Interval_set.cardinal k)
  | Dataset.Dense -> Alcotest.fail "expected sparse");
  Alcotest.(check int) "stored bytes" (8 * n) (Dataset.stored_bytes kept);
  Alcotest.(check (float 0.)) "kept read" (fill [| 2 * 77_777 |])
    (File.read_element d "data" [| 2 * 77_777 |]);
  Alcotest.(check bool) "carved read" true
    (match File.read_element d "data" [| (2 * 77_777) + 1 |] with
    | _ -> false
    | exception File.Data_missing _ -> true);
  File.close d;
  Sys.remove src;
  Sys.remove dst

let arb_file_case =
  let open QCheck in
  let gen =
    Gen.(
      list_size (int_range 1 3) (int_range 1 8) >>= fun dims ->
      let dims = Array.of_list dims in
      oneofl [ None; Some (Array.map (fun d -> max 1 (d / 2)) dims) ] >|= fun chunk ->
      (dims, chunk))
  in
  make gen

let qcheck_roundtrip_random_shapes =
  QCheck.Test.make ~name:"KH5 roundtrip over random shapes and layouts" ~count:60 arb_file_case
    (fun (dims, chunk) ->
      let layout = match chunk with None -> None | Some c -> Some (Layout.Chunked c) in
      let ds = mk_dense ?layout dims in
      let mem = Writer.write_bytes [ (ds, fill) ] in
      let f = File.open_port (Kondo_audit.Io_port.of_bytes ~path:"mem" mem) in
      let ok = ref true in
      Shape.iter ds.Dataset.shape (fun idx ->
          if File.read_element f "data" idx <> fill idx then ok := false);
      !ok)

let suite =
  ( "h5",
    [ Alcotest.test_case "roundtrip contiguous" `Quick test_roundtrip_contiguous;
      Alcotest.test_case "roundtrip chunked" `Quick test_roundtrip_chunked;
      Alcotest.test_case "roundtrip all dtypes" `Quick test_roundtrip_all_dtypes;
      Alcotest.test_case "multiple datasets" `Quick test_multiple_datasets;
      Alcotest.test_case "duplicate names rejected" `Quick test_duplicate_names_rejected;
      Alcotest.test_case "unknown dataset" `Quick test_unknown_dataset;
      Alcotest.test_case "corrupt magic" `Quick test_corrupt_magic;
      Alcotest.test_case "truncated file" `Quick test_truncated_file;
      Alcotest.test_case "read_slab matches element reads" `Quick test_read_slab_matches_elementwise;
      Alcotest.test_case "read_slab clips" `Quick test_read_slab_clips;
      Alcotest.test_case "dense slab reads batch" `Quick test_slab_read_batches;
      Alcotest.test_case "mean_slab" `Quick test_mean_slab;
      Alcotest.test_case "debloated file serves kept data" `Quick test_debloated_reads_kept_data;
      Alcotest.test_case "debloated file raises Data_missing" `Quick test_debloated_missing_raises;
      Alcotest.test_case "debloated file is smaller" `Quick test_debloated_smaller;
      Alcotest.test_case "debloated run table reopens" `Quick test_debloated_roundtrip_reopen;
      Alcotest.test_case "read_raw" `Quick test_read_raw;
      Alcotest.test_case "keep ranges align to elements" `Quick test_align_keep_rounds_to_elements;
      Alcotest.test_case "write_bytes equals file" `Quick test_write_bytes_equals_file;
      Alcotest.test_case "attributes roundtrip" `Quick test_attributes_roundtrip;
      Alcotest.test_case "crc verifies clean file" `Quick test_crc_verifies_clean_file;
      Alcotest.test_case "crc detects corruption" `Quick test_crc_detects_corruption;
      Alcotest.test_case "crc on debloated file" `Quick test_crc_on_debloated;
      Alcotest.test_case "malformed run tables rejected" `Quick test_run_table_validated;
      Alcotest.test_case "run table matches add-fold reference" `Quick
        test_run_table_parity_cases;
      Alcotest.test_case "100,000-run debloat round trip" `Quick test_many_runs_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_run_table_parity;
      QCheck_alcotest.to_alcotest qcheck_roundtrip_random_shapes ] )
