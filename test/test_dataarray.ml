(* Unit and property tests for the array data model. *)

open Kondo_dataarray

(* ---------------- Dtype ---------------- *)

let test_dtype_sizes () =
  Alcotest.(check int) "int32" 4 (Dtype.size Dtype.Int32);
  Alcotest.(check int) "int64" 8 (Dtype.size Dtype.Int64);
  Alcotest.(check int) "float32" 4 (Dtype.size Dtype.Float32);
  Alcotest.(check int) "float64" 8 (Dtype.size Dtype.Float64);
  Alcotest.(check int) "long double is 16 bytes (paper V-B)" 16 (Dtype.size Dtype.Long_double)

let test_dtype_string_roundtrip () =
  List.iter
    (fun dt ->
      Alcotest.(check bool) "string roundtrip" true (Dtype.of_string (Dtype.to_string dt) = Some dt);
      Alcotest.(check bool) "code roundtrip" true (Dtype.of_code (Dtype.code dt) = Some dt))
    Dtype.all

let test_dtype_encode_decode () =
  List.iter
    (fun dt ->
      let buf = Bytes.make 16 '\xAA' in
      Dtype.encode dt 42.0 buf 0;
      Alcotest.(check (float 1e-6)) (Dtype.to_string dt) 42.0 (Dtype.decode dt buf 0))
    Dtype.all

let qcheck_dtype_float_roundtrip =
  QCheck.Test.make ~name:"float64/long_double roundtrip is exact" ~count:300
    QCheck.(float_range (-1e12) 1e12)
    (fun v ->
      List.for_all
        (fun dt ->
          let buf = Bytes.make 16 '\x00' in
          Dtype.encode dt v buf 0;
          Dtype.decode dt buf 0 = v)
        [ Dtype.Float64; Dtype.Long_double ])

let qcheck_dtype_int_roundtrip =
  QCheck.Test.make ~name:"int32 roundtrip on integers" ~count:300
    QCheck.(int_range (-1_000_000) 1_000_000)
    (fun v ->
      let buf = Bytes.make 4 '\x00' in
      Dtype.encode Dtype.Int32 (float_of_int v) buf 0;
      Dtype.decode Dtype.Int32 buf 0 = float_of_int v)

(* ---------------- Shape ---------------- *)

let test_shape_basics () =
  let s = Shape.create [| 4; 5; 6 |] in
  Alcotest.(check int) "rank" 3 (Shape.rank s);
  Alcotest.(check int) "nelems" 120 (Shape.nelems s);
  Alcotest.(check string) "to_string" "4x5x6" (Shape.to_string s)

let test_shape_bounds () =
  let s = Shape.create [| 3; 3 |] in
  Alcotest.(check bool) "in" true (Shape.in_bounds s [| 2; 2 |]);
  Alcotest.(check bool) "neg" false (Shape.in_bounds s [| -1; 0 |]);
  Alcotest.(check bool) "over" false (Shape.in_bounds s [| 0; 3 |]);
  Alcotest.(check bool) "rank mismatch" false (Shape.in_bounds s [| 0 |])

let test_shape_rejects_bad_dims () =
  Alcotest.check_raises "zero dim" (Invalid_argument "Shape.create: non-positive dim") (fun () ->
      ignore (Shape.create [| 3; 0 |]))

let test_shape_row_major_order () =
  let s = Shape.create [| 2; 3 |] in
  Alcotest.(check int) "(0,0)" 0 (Shape.linearize s [| 0; 0 |]);
  Alcotest.(check int) "(0,2)" 2 (Shape.linearize s [| 0; 2 |]);
  Alcotest.(check int) "(1,0)" 3 (Shape.linearize s [| 1; 0 |]);
  Alcotest.(check int) "(1,2)" 5 (Shape.linearize s [| 1; 2 |])

let test_shape_iter_order () =
  let s = Shape.create [| 2; 2 |] in
  let seen = ref [] in
  Shape.iter s (fun idx -> seen := Array.to_list idx :: !seen);
  Alcotest.(check (list (list int))) "row major"
    [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
    (List.rev !seen)

let arb_shape_and_index =
  let open QCheck in
  let gen =
    Gen.(
      list_size (int_range 1 3) (int_range 1 12) >>= fun dims ->
      let dims = Array.of_list dims in
      let idx = Array.to_list (Array.map (fun d -> int_range 0 (d - 1)) dims) in
      flatten_l idx >|= fun idx -> (dims, Array.of_list idx))
  in
  make ~print:(fun (d, i) ->
      Printf.sprintf "dims=[%s] idx=[%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int d)))
        (String.concat ";" (Array.to_list (Array.map string_of_int i))))
    gen

let qcheck_linearize_roundtrip =
  QCheck.Test.make ~name:"linearize/delinearize roundtrip" ~count:500 arb_shape_and_index
    (fun (dims, idx) ->
      let s = Shape.create dims in
      let lin = Shape.linearize s idx in
      lin >= 0 && lin < Shape.nelems s && Shape.delinearize s lin = idx)

(* ---------------- Layout ---------------- *)

let test_layout_contiguous_offsets () =
  let s = Shape.create [| 2; 3 |] in
  Alcotest.(check int) "first" 0 (Layout.element_offset Layout.Contiguous s Dtype.Float64 [| 0; 0 |]);
  Alcotest.(check int) "row stride" 24
    (Layout.element_offset Layout.Contiguous s Dtype.Float64 [| 1; 0 |])

let test_layout_chunked_offsets () =
  let s = Shape.create [| 4; 4 |] in
  let l = Layout.Chunked [| 2; 2 |] in
  (* chunk (0,0) holds (0..1, 0..1): element (1,1) is slot 3 *)
  Alcotest.(check int) "within first chunk" (3 * 8)
    (Layout.element_offset l s Dtype.Float64 [| 1; 1 |]);
  (* chunk (0,1) is the second stored chunk *)
  Alcotest.(check int) "second chunk start" (4 * 8)
    (Layout.element_offset l s Dtype.Float64 [| 0; 2 |])

let test_layout_chunk_grid_padding () =
  let s = Shape.create [| 5; 3 |] in
  let l = Layout.Chunked [| 2; 2 |] in
  Alcotest.(check (array int)) "grid" [| 3; 2 |] (Layout.chunk_grid l s);
  Alcotest.(check int) "padded storage" (3 * 2 * 4) (Layout.storage_nelems l s)

let test_layout_padding_unmapped () =
  let s = Shape.create [| 3; 3 |] in
  let l = Layout.Chunked [| 2; 2 |] in
  (* element (0,0) of chunk (1,1) is index (2,2): fine; its neighbours in
     the chunk are padding *)
  let off_last_chunk = Layout.element_offset l s Dtype.Int32 [| 2; 2 |] in
  Alcotest.(check bool) "real element maps back" true
    (Layout.index_of_offset l s Dtype.Int32 off_last_chunk = Some [| 2; 2 |]);
  Alcotest.(check bool) "padding slot maps to None" true
    (Layout.index_of_offset l s Dtype.Int32 (off_last_chunk + 4) = None)

let test_layout_unaligned_offset () =
  let s = Shape.create [| 4 |] in
  Alcotest.(check bool) "unaligned" true
    (Layout.index_of_offset Layout.Contiguous s Dtype.Float64 3 = None)

let test_layout_contiguous_run () =
  let s = Shape.create [| 4; 6 |] in
  Alcotest.(check int) "to end of array" (4 * 6) (Layout.contiguous_run Layout.Contiguous s Dtype.Float64 [| 0; 0 |]);
  Alcotest.(check int) "within chunk row" 3
    (Layout.contiguous_run (Layout.Chunked [| 2; 3 |]) s Dtype.Float64 [| 0; 0 |]);
  Alcotest.(check int) "mid chunk row" 2
    (Layout.contiguous_run (Layout.Chunked [| 2; 3 |]) s Dtype.Float64 [| 0; 4 |])

let arb_layout_case =
  let open QCheck in
  let gen =
    Gen.(
      list_size (int_range 1 3) (int_range 1 10) >>= fun dims ->
      let dims = Array.of_list dims in
      let cdims = Array.to_list (Array.map (fun d -> int_range 1 d) dims) in
      flatten_l cdims >>= fun cdims ->
      let idx = Array.to_list (Array.map (fun d -> int_range 0 (d - 1)) dims) in
      flatten_l idx >|= fun idx -> (dims, Array.of_list cdims, Array.of_list idx))
  in
  make gen

let qcheck_layout_offset_roundtrip =
  QCheck.Test.make ~name:"element_offset/index_of_offset roundtrip (chunked)" ~count:500
    arb_layout_case (fun (dims, cdims, idx) ->
      let s = Shape.create dims in
      let l = Layout.Chunked cdims in
      let off = Layout.element_offset l s Dtype.Long_double idx in
      Layout.index_of_offset l s Dtype.Long_double off = Some idx)

let qcheck_layout_offsets_injective =
  QCheck.Test.make ~name:"chunked offsets stay within storage and distinct per chunk slot"
    ~count:300 arb_layout_case (fun (dims, cdims, idx) ->
      let s = Shape.create dims in
      let l = Layout.Chunked cdims in
      let off = Layout.element_offset l s Dtype.Int32 idx in
      off >= 0 && off < Layout.storage_nelems l s * 4)

(* ---------------- Bitset ---------------- *)

let test_bitset_basics () =
  let b = Bitset.create 100 in
  Alcotest.(check int) "empty" 0 (Bitset.cardinal b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  Bitset.set b 99;
  Alcotest.(check int) "3 members" 3 (Bitset.cardinal b);
  Alcotest.(check bool) "mem" true (Bitset.mem b 63);
  Bitset.clear b 63;
  Alcotest.(check bool) "cleared" false (Bitset.mem b 63);
  Alcotest.(check int) "2 members" 2 (Bitset.cardinal b)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: out of range") (fun () ->
      Bitset.set b 8)

let test_bitset_iter () =
  let b = Bitset.create 20 in
  List.iter (Bitset.set b) [ 3; 7; 19 ];
  let seen = ref [] in
  Bitset.iter b (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "in order" [ 3; 7; 19 ] (List.rev !seen)

let naive_of_list n l =
  let a = Array.make n false in
  List.iter (fun i -> a.(i) <- true) l;
  a

let arb_two_sets =
  QCheck.(pair (list (int_range 0 199)) (list (int_range 0 199)))

let qcheck_bitset_ops_match_naive =
  QCheck.Test.make ~name:"bitset union/inter/diff match a boolean-array model" ~count:300
    arb_two_sets (fun (la, lb) ->
      let mk l =
        let b = Bitset.create 200 in
        List.iter (Bitset.set b) l;
        b
      in
      let a = mk la and b = mk lb in
      let na = naive_of_list 200 la and nb = naive_of_list 200 lb in
      let count f =
        let c = ref 0 in
        for i = 0 to 199 do
          if f na.(i) nb.(i) then incr c
        done;
        !c
      in
      let u = Bitset.copy a in
      Bitset.union_into u b;
      Bitset.cardinal u = count (fun x y -> x || y)
      && Bitset.inter_cardinal a b = count (fun x y -> x && y)
      && Bitset.diff_cardinal a b = count (fun x y -> x && not y)
      && Bitset.subset a u && Bitset.subset b u)

(* ---------------- Hyperslab ---------------- *)

let test_slab_point () =
  let s = Hyperslab.point [| 3; 4 |] in
  Alcotest.(check int) "one element" 1 (Hyperslab.nelems s);
  Alcotest.(check bool) "mem" true (Hyperslab.mem s [| 3; 4 |]);
  Alcotest.(check bool) "not mem" false (Hyperslab.mem s [| 3; 5 |])

let test_slab_block () =
  let s = Hyperslab.block_at [| 1; 2 |] [| 2; 3 |] in
  Alcotest.(check int) "6 elements" 6 (Hyperslab.nelems s);
  Alcotest.(check bool) "corner" true (Hyperslab.mem s [| 2; 4 |]);
  Alcotest.(check bool) "outside" false (Hyperslab.mem s [| 3; 2 |])

let test_slab_strided () =
  let s = Hyperslab.make ~start:[| 0 |] ~stride:[| 4 |] ~count:[| 3 |] ~block:[| 2 |] () in
  (* selects 0,1, 4,5, 8,9 *)
  let seen = ref [] in
  Hyperslab.iter s (fun idx -> seen := idx.(0) :: !seen);
  Alcotest.(check (list int)) "strided blocks" [ 0; 1; 4; 5; 8; 9 ] (List.rev !seen);
  Alcotest.(check bool) "mem within block" true (Hyperslab.mem s [| 5 |]);
  Alcotest.(check bool) "gap" false (Hyperslab.mem s [| 3 |])

let test_slab_block_wider_than_stride () =
  (* stride 1, block 4: a dense run 0..3 despite count=1 semantics per position *)
  let s = Hyperslab.make ~start:[| 0 |] ~stride:[| 1 |] ~count:[| 1 |] ~block:[| 4 |] () in
  List.iter (fun i -> Alcotest.(check bool) (string_of_int i) true (Hyperslab.mem s [| i |])) [ 0; 1; 2; 3 ];
  Alcotest.(check bool) "4 out" false (Hyperslab.mem s [| 4 |])

let test_slab_clip () =
  let shape = Shape.create [| 4; 4 |] in
  let s = Hyperslab.block_at [| 3; 3 |] [| 3; 3 |] in
  let n = ref 0 in
  Hyperslab.iter ~clip:shape s (fun _ -> incr n);
  Alcotest.(check int) "only the in-bounds corner" 1 !n

let test_slab_bbox () =
  let s = Hyperslab.make ~start:[| 2; 1 |] ~stride:[| 3; 2 |] ~count:[| 2; 4 |] ~block:[| 2; 1 |] () in
  let lo, hi = Hyperslab.bbox s in
  Alcotest.(check (array int)) "lo" [| 2; 1 |] lo;
  Alcotest.(check (array int)) "hi" [| 6; 7 |] hi

let test_slab_validation () =
  Alcotest.check_raises "zero stride" (Invalid_argument "Hyperslab.make: stride < 1") (fun () ->
      ignore (Hyperslab.make ~start:[| 0 |] ~stride:[| 0 |] ()))

let arb_slab =
  let open QCheck in
  let gen =
    Gen.(
      int_range 1 2 >>= fun rank ->
      let f g = flatten_l (List.init rank (fun _ -> g)) in
      f (int_range 0 6) >>= fun start ->
      f (int_range 1 4) >>= fun stride ->
      f (int_range 1 3) >>= fun count ->
      f (int_range 1 4) >|= fun block ->
      Hyperslab.make ~start:(Array.of_list start) ~stride:(Array.of_list stride)
        ~count:(Array.of_list count) ~block:(Array.of_list block) ())
  in
  make ~print:Hyperslab.to_string gen

let qcheck_slab_iter_mem_agree =
  QCheck.Test.make ~name:"every iterated index is a member" ~count:300 arb_slab (fun s ->
      let ok = ref true in
      Hyperslab.iter s (fun idx -> if not (Hyperslab.mem s idx) then ok := false);
      !ok)

let qcheck_slab_mem_iff_iterated =
  QCheck.Test.make ~name:"mem agrees with enumeration over the bbox" ~count:200 arb_slab (fun s ->
      let tbl = Hashtbl.create 64 in
      Hyperslab.iter s (fun idx -> Hashtbl.replace tbl (Array.to_list idx) ());
      let lo, hi = Hyperslab.bbox s in
      let ok = ref true in
      let rec walk k acc =
        if k = Array.length lo then begin
          let idx = Array.of_list (List.rev acc) in
          let expected = Hashtbl.mem tbl (Array.to_list idx) in
          if Hyperslab.mem s idx <> expected then ok := false
        end
        else
          for v = lo.(k) to hi.(k) do
            walk (k + 1) (v :: acc)
          done
      in
      walk 0 [];
      !ok)

let qcheck_slab_nelems =
  QCheck.Test.make ~name:"nelems counts iterated indices when blocks do not overlap" ~count:200
    arb_slab (fun s ->
      (* skip overlapping selections (block > stride) where multiset
         counting diverges from set counting *)
      let overlapping = ref false in
      for k = 0 to Hyperslab.rank s - 1 do
        if s.Hyperslab.block.(k) > s.Hyperslab.stride.(k) && s.Hyperslab.count.(k) > 1 then
          overlapping := true
      done;
      QCheck.assume (not !overlapping);
      let n = ref 0 in
      Hyperslab.iter s (fun _ -> incr n);
      !n = Hyperslab.nelems s)

(* ---------------- Index_set ---------------- *)

let test_index_set_basics () =
  let s = Shape.create [| 4; 4 |] in
  let set = Index_set.create s in
  Alcotest.(check bool) "empty" true (Index_set.is_empty set);
  Index_set.add set [| 1; 2 |];
  Index_set.add set [| 1; 2 |];
  Alcotest.(check int) "dedup" 1 (Index_set.cardinal set);
  Alcotest.(check bool) "mem" true (Index_set.mem set [| 1; 2 |]);
  Alcotest.(check bool) "not mem" false (Index_set.mem set [| 2; 1 |]);
  Alcotest.(check (float 1e-9)) "fraction" (1.0 /. 16.0) (Index_set.fraction set)

let test_index_set_out_of_bounds () =
  let set = Index_set.create (Shape.create [| 2; 2 |]) in
  Alcotest.check_raises "oob add" (Invalid_argument "Index_set.add: out of bounds") (fun () ->
      Index_set.add set [| 2; 0 |]);
  Alcotest.(check bool) "add_if_in_bounds false" false (Index_set.add_if_in_bounds set [| 2; 0 |])

let test_index_set_slab_clip () =
  let set = Index_set.create (Shape.create [| 4; 4 |]) in
  Index_set.add_slab set (Hyperslab.block_at [| 2; 2 |] [| 4; 4 |]);
  Alcotest.(check int) "clipped to corner" 4 (Index_set.cardinal set)

let test_index_set_set_ops () =
  let s = Shape.create [| 3; 3 |] in
  let a = Index_set.of_list s [ [| 0; 0 |]; [| 1; 1 |] ] in
  let b = Index_set.of_list s [ [| 1; 1 |]; [| 2; 2 |] ] in
  Alcotest.(check int) "inter" 1 (Index_set.inter_cardinal a b);
  Alcotest.(check int) "diff" 1 (Index_set.diff_cardinal a b);
  let u = Index_set.copy a in
  Index_set.union_into u b;
  Alcotest.(check int) "union" 3 (Index_set.cardinal u);
  Alcotest.(check bool) "subset" true (Index_set.subset a u);
  Alcotest.(check bool) "not subset" false (Index_set.subset u a)

let test_index_set_iter_roundtrip () =
  let s = Shape.create [| 3; 3 |] in
  let pts = [ [| 0; 2 |]; [| 1; 0 |]; [| 2; 1 |] ] in
  let set = Index_set.of_list s pts in
  Alcotest.(check int) "to_list cardinality" 3 (List.length (Index_set.to_list set));
  List.iter
    (fun p -> Alcotest.(check bool) "roundtrip member" true (Index_set.mem set p))
    (Index_set.to_list set)

let qcheck_index_set_serialization =
  QCheck.Test.make ~name:"index set to_bytes/of_bytes roundtrip" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 3) (int_range 1 10))
        (list_of_size (Gen.int_range 0 40) (int_range 0 999)))
    (fun (dims, raw) ->
      let shape = Shape.create (Array.of_list dims) in
      let set = Index_set.create shape in
      List.iter
        (fun lin ->
          let lin = lin mod Shape.nelems shape in
          Index_set.add set (Shape.delinearize shape lin))
        raw;
      Index_set.equal set (Index_set.of_bytes (Index_set.to_bytes set)))

let test_index_set_random_member () =
  let rng = Kondo_prng.Rng.create 5 in
  let s = Shape.create [| 4; 4 |] in
  let set = Index_set.of_list s [ [| 3; 3 |] ] in
  Alcotest.(check bool) "only member" true (Index_set.random_member set rng = Some [| 3; 3 |]);
  let empty = Index_set.create s in
  Alcotest.(check bool) "empty" true (Index_set.random_member empty rng = None)

(* ---------------- Run-length kernels ---------------- *)

(* A clip shape of rank 1-3 and a slab of the same rank whose starts may
   be negative or past the shape, with stride < block overlaps and
   count > 1. *)
let arb_clip_case =
  let open QCheck in
  let gen =
    Gen.(
      int_range 1 3 >>= fun rank ->
      let f g = flatten_l (List.init rank (fun _ -> g)) in
      f (int_range 1 8) >>= fun dims ->
      f (int_range (-4) 9) >>= fun start ->
      f (int_range 1 4) >>= fun stride ->
      f (int_range 1 3) >>= fun count ->
      f (int_range 1 4) >|= fun block ->
      ( Shape.create (Array.of_list dims),
        Hyperslab.make ~start:(Array.of_list start) ~stride:(Array.of_list stride)
          ~count:(Array.of_list count) ~block:(Array.of_list block) () ))
  in
  make ~print:(fun (shape, s) -> Shape.to_string shape ^ " " ^ Hyperslab.to_string s) gen

(* Membership of [iter ~clip], per linear index. *)
let clipped_elements shape s =
  let a = Array.make (Shape.nelems shape) false in
  Hyperslab.iter ~clip:shape s (fun idx -> a.(Shape.linearize shape idx) <- true);
  a

(* Rows in visiting order, consecutive repeats collapsed. *)
let collapse l =
  List.rev (List.fold_left (fun acc x -> match acc with y :: _ when y = x -> acc | _ -> x :: acc) [] l)

let qcheck_iter_runs_matches_iter =
  QCheck.Test.make ~name:"iter_runs covers exactly iter ~clip, row by row" ~count:500 arb_clip_case
    (fun (shape, s) ->
      let dims = Shape.dims shape in
      let row_len = dims.(Array.length dims - 1) in
      let expected = clipped_elements shape s in
      let got = Array.make (Shape.nelems shape) false in
      let runs = ref [] in
      Hyperslab.iter_runs ~clip:shape s (fun start len ->
          runs := (start, len) :: !runs;
          for i = start to start + len - 1 do
            got.(i) <- true
          done);
      let runs = List.rev !runs in
      let well_formed =
        List.for_all
          (fun (start, len) -> len >= 1 && start >= 0 && (start mod row_len) + len <= row_len)
          runs
      in
      (* within a row visit, runs are disjoint and increasing; a repeated
         visit of the same row (outer blocks overlap) restarts at [first] *)
      let rec ordered first = function
        | (s1, l1) :: ((s2, _) :: _ as rest) ->
          if s1 / row_len <> s2 / row_len then ordered s2 rest
          else (s2 >= s1 + l1 || s2 = first) && ordered first rest
        | _ -> true
      in
      let ordered = function [] -> true | (s0, _) :: _ as l -> ordered s0 l in
      let iter_rows = ref [] in
      Hyperslab.iter ~clip:shape s (fun idx -> iter_rows := (Shape.linearize shape idx / row_len) :: !iter_rows);
      well_formed && ordered runs && got = expected
      && collapse (List.rev !iter_rows) = collapse (List.map (fun (st, _) -> st / row_len) runs))

let arb_ranges =
  QCheck.(
    pair (int_range 1 100)
      (list_of_size (Gen.int_range 0 12) (pair (int_range 0 99) (int_range 0 40))))

let qcheck_set_range_matches_bits =
  QCheck.Test.make ~name:"set_range and range_full match per-bit loops" ~count:500 arb_ranges
    (fun (n, ranges) ->
      let b = Bitset.create n and model = Array.make n false in
      let clip (start, len) =
        let start = start mod n in
        (start, min len (n - start))
      in
      let full_model (start, len) =
        let ok = ref true in
        for i = start to start + len - 1 do
          if not model.(i) then ok := false
        done;
        !ok
      in
      List.for_all
        (fun r ->
          let start, len = clip r in
          (* probe before and after filling, so both answers occur *)
          let before = Bitset.range_full b start len = full_model (start, len) in
          Bitset.set_range b start len;
          for i = start to start + len - 1 do
            model.(i) <- true
          done;
          let count = Array.fold_left (fun c x -> if x then c + 1 else c) 0 model in
          before
          && Bitset.cardinal b = count
          && Bitset.range_full b start len
          && List.for_all (fun i -> Bitset.mem b i = model.(i)) (List.init n Fun.id))
        ranges
      && List.for_all (fun r -> Bitset.range_full b (fst (clip r)) (snd (clip r)) = full_model (clip r)) ranges)

let test_set_range_bounds () =
  let b = Bitset.create 10 in
  Bitset.set_range b 3 0;
  Alcotest.(check int) "empty range adds nothing" 0 (Bitset.cardinal b);
  Alcotest.(check bool) "empty range is full" true (Bitset.range_full b 10 0);
  let oob = Invalid_argument "Bitset: range out of range" in
  Alcotest.check_raises "past the end" oob (fun () -> Bitset.set_range b 5 6);
  Alcotest.check_raises "negative start" oob (fun () -> Bitset.set_range b (-1) 2);
  Alcotest.check_raises "negative length" oob (fun () -> ignore (Bitset.range_full b 2 (-1)));
  Bitset.set_range b 0 10;
  Bitset.set_range b 2 5;
  Alcotest.(check int) "overlap counted once" 10 (Bitset.cardinal b)

(* [clip_case] plus a set that holds some random points, and sometimes the
   whole clipped slab with at most one element left out. *)
let arb_cover_case =
  QCheck.(triple arb_clip_case (list_of_size (Gen.int_range 0 6) (int_range 0 999)) (int_range 0 2))

let qcheck_add_covers_slab =
  QCheck.Test.make ~name:"add_slab and covers_slab match the element loops" ~count:500
    arb_cover_case (fun ((shape, s), points, mode) ->
      let n = Shape.nelems shape in
      let base = Index_set.create shape in
      List.iter (fun lin -> Index_set.add base (Shape.delinearize shape (lin mod n))) points;
      let elems = ref [] in
      Hyperslab.iter ~clip:shape s (fun idx -> elems := Array.copy idx :: !elems);
      (* mode 1: all of the slab; mode 2: all but its first element *)
      let skip = match (mode, List.rev !elems) with 2, e :: _ -> Some e | _ -> None in
      if mode > 0 then
        List.iter (fun idx -> if Some idx <> skip then Index_set.add base idx) !elems;
      let covered = List.for_all (Index_set.mem base) !elems in
      let by_runs = Index_set.copy base and by_elems = Index_set.copy base in
      Index_set.add_slab by_runs s;
      List.iter (Index_set.add by_elems) !elems;
      Index_set.covers_slab base s = covered
      && Index_set.equal by_runs by_elems
      && Index_set.cardinal by_runs = Index_set.cardinal by_elems
      && Index_set.covers_slab by_runs s)

let qcheck_index_set_iter_runs =
  QCheck.Test.make ~name:"index set iter_runs: maximal runs of iter's members" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 60) (int_range 0 99))
    (fun raw ->
      let shape = Shape.create [| 10; 10 |] in
      let set = Index_set.create shape in
      List.iter (fun lin -> Index_set.add set (Shape.delinearize shape lin)) raw;
      let members = ref [] in
      Index_set.iter set (fun idx -> members := Shape.linearize shape idx :: !members);
      let runs = ref [] in
      Index_set.iter_runs set (fun start len -> runs := (start, len) :: !runs);
      let runs = List.rev !runs in
      let expanded = List.concat_map (fun (s, l) -> List.init l (fun i -> s + i)) runs in
      let rec maximal = function
        | (s1, l1) :: ((s2, _) :: _ as rest) -> s2 > s1 + l1 && maximal rest
        | _ -> true
      in
      expanded = List.rev !members && maximal runs)

(* Pinned wire bytes: rank 2, dims 3x5, members 0, 4, 7, 8, 14 (row-major). *)
let golden_index_set_bytes =
  "\002\000\000\000\003\000\000\000\005\000\000\000\x91\x41"

let test_index_set_golden_bytes () =
  let shape = Shape.create [| 3; 5 |] in
  let set = Index_set.create shape in
  List.iter (fun lin -> Index_set.add set (Shape.delinearize shape lin)) [ 0; 4; 7; 8; 14 ];
  Alcotest.(check string) "encoding" golden_index_set_bytes
    (Bytes.to_string (Index_set.to_bytes set));
  let decoded = Index_set.of_bytes (Bytes.of_string golden_index_set_bytes) in
  Alcotest.(check bool) "decoding" true (Index_set.equal set decoded);
  Alcotest.(check int) "decoded cardinal" 5 (Index_set.cardinal decoded);
  (* a set padding bit (bit 15 of a 15-element set) is ignored *)
  let padded = Index_set.of_bytes (Bytes.of_string "\002\000\000\000\003\000\000\000\005\000\000\000\x91\xc1") in
  Alcotest.(check bool) "padding ignored" true (Index_set.equal set padded);
  Alcotest.(check int) "padding not counted" 5 (Index_set.cardinal padded);
  Alcotest.(check string) "padding dropped on re-encoding" golden_index_set_bytes
    (Bytes.to_string (Index_set.to_bytes padded));
  let rejects name msg s =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (Index_set.of_bytes (Bytes.of_string s)))
  in
  rejects "truncated" "Index_set.of_bytes: truncated" "\002\000\000";
  rejects "rank 0" "Index_set.of_bytes: bad rank" "\000\000\000\000";
  rejects "rank 9" "Index_set.of_bytes: bad rank" "\009\000\000\000";
  rejects "header cut" "Index_set.of_bytes: bad rank" "\002\000\000\000\003\000\000\000";
  rejects "zero dim" "Index_set.of_bytes: bad dims" "\002\000\000\000\000\000\000\000\005\000\000\000";
  rejects "short bits" "Index_set.of_bytes: bad length" "\002\000\000\000\003\000\000\000\005\000\000\000\x91";
  rejects "long bits" "Index_set.of_bytes: bad length"
    "\002\000\000\000\003\000\000\000\005\000\000\000\x91\x41\000"

let test_layout_contiguous_run_ragged () =
  (* 5x7 array in 2x3 chunks: the last chunk column holds only column 6 *)
  let s = Shape.create [| 5; 7 |] and l = Layout.Chunked [| 2; 3 |] in
  Alcotest.(check int) "ragged chunk column" 1 (Layout.contiguous_run l s Dtype.Float64 [| 4; 6 |]);
  Alcotest.(check int) "full chunk column" 3 (Layout.contiguous_run l s Dtype.Float64 [| 4; 3 |])

let suite =
  ( "dataarray",
    [ Alcotest.test_case "dtype sizes" `Quick test_dtype_sizes;
      Alcotest.test_case "dtype string/code roundtrip" `Quick test_dtype_string_roundtrip;
      Alcotest.test_case "dtype encode/decode" `Quick test_dtype_encode_decode;
      QCheck_alcotest.to_alcotest qcheck_dtype_float_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_dtype_int_roundtrip;
      Alcotest.test_case "shape basics" `Quick test_shape_basics;
      Alcotest.test_case "shape bounds" `Quick test_shape_bounds;
      Alcotest.test_case "shape rejects bad dims" `Quick test_shape_rejects_bad_dims;
      Alcotest.test_case "shape row-major order" `Quick test_shape_row_major_order;
      Alcotest.test_case "shape iter order" `Quick test_shape_iter_order;
      QCheck_alcotest.to_alcotest qcheck_linearize_roundtrip;
      Alcotest.test_case "layout contiguous offsets" `Quick test_layout_contiguous_offsets;
      Alcotest.test_case "layout chunked offsets" `Quick test_layout_chunked_offsets;
      Alcotest.test_case "layout chunk grid and padding" `Quick test_layout_chunk_grid_padding;
      Alcotest.test_case "layout padding unmapped" `Quick test_layout_padding_unmapped;
      Alcotest.test_case "layout unaligned offset" `Quick test_layout_unaligned_offset;
      Alcotest.test_case "layout contiguous run" `Quick test_layout_contiguous_run;
      QCheck_alcotest.to_alcotest qcheck_layout_offset_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_layout_offsets_injective;
      Alcotest.test_case "bitset basics" `Quick test_bitset_basics;
      Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
      Alcotest.test_case "bitset iter" `Quick test_bitset_iter;
      QCheck_alcotest.to_alcotest qcheck_bitset_ops_match_naive;
      Alcotest.test_case "slab point" `Quick test_slab_point;
      Alcotest.test_case "slab block" `Quick test_slab_block;
      Alcotest.test_case "slab strided" `Quick test_slab_strided;
      Alcotest.test_case "slab block wider than stride" `Quick test_slab_block_wider_than_stride;
      Alcotest.test_case "slab clip" `Quick test_slab_clip;
      Alcotest.test_case "slab bbox" `Quick test_slab_bbox;
      Alcotest.test_case "slab validation" `Quick test_slab_validation;
      QCheck_alcotest.to_alcotest qcheck_slab_iter_mem_agree;
      QCheck_alcotest.to_alcotest qcheck_slab_mem_iff_iterated;
      QCheck_alcotest.to_alcotest qcheck_slab_nelems;
      Alcotest.test_case "index_set basics" `Quick test_index_set_basics;
      Alcotest.test_case "index_set out of bounds" `Quick test_index_set_out_of_bounds;
      Alcotest.test_case "index_set slab clip" `Quick test_index_set_slab_clip;
      Alcotest.test_case "index_set set ops" `Quick test_index_set_set_ops;
      Alcotest.test_case "index_set iter roundtrip" `Quick test_index_set_iter_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_index_set_serialization;
      Alcotest.test_case "index_set random member" `Quick test_index_set_random_member;
      QCheck_alcotest.to_alcotest qcheck_iter_runs_matches_iter;
      QCheck_alcotest.to_alcotest qcheck_set_range_matches_bits;
      Alcotest.test_case "bitset set_range bounds" `Quick test_set_range_bounds;
      QCheck_alcotest.to_alcotest qcheck_add_covers_slab;
      QCheck_alcotest.to_alcotest qcheck_index_set_iter_runs;
      Alcotest.test_case "index_set golden bytes" `Quick test_index_set_golden_bytes;
      Alcotest.test_case "layout contiguous run at a ragged edge" `Quick
        test_layout_contiguous_run_ragged ] )
