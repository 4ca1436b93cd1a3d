(* Unit and property tests for intervals, coalescing sets, and the
   interval B-tree. *)

open Kondo_interval

let iv lo hi = Interval.make lo hi

(* ---------------- Interval ---------------- *)

let test_interval_basics () =
  let a = iv 0 10 in
  Alcotest.(check int) "length" 10 (Interval.length a);
  Alcotest.(check bool) "non-empty" false (Interval.is_empty a);
  Alcotest.(check bool) "empty" true (Interval.is_empty (iv 5 5));
  Alcotest.(check bool) "point in" true (Interval.contains_point a 0);
  Alcotest.(check bool) "hi exclusive" false (Interval.contains_point a 10)

let test_interval_of_event () =
  let a = Interval.of_event ~offset:70 ~size:30 in
  Alcotest.(check int) "lo" 70 a.Interval.lo;
  Alcotest.(check int) "hi" 100 a.Interval.hi

let test_interval_overlap_touch () =
  Alcotest.(check bool) "overlap" true (Interval.overlaps (iv 0 10) (iv 5 15));
  Alcotest.(check bool) "adjacent not overlapping" false (Interval.overlaps (iv 0 10) (iv 10 20));
  Alcotest.(check bool) "adjacent touches" true (Interval.touches (iv 0 10) (iv 10 20));
  Alcotest.(check bool) "gap" false (Interval.touches (iv 0 10) (iv 11 20))

let test_interval_union_inter () =
  Alcotest.(check bool) "union" true (Interval.union (iv 0 10) (iv 5 15) = iv 0 15);
  Alcotest.(check bool) "inter" true (Interval.inter (iv 0 10) (iv 5 15) = Some (iv 5 10));
  Alcotest.(check bool) "disjoint inter" true (Interval.inter (iv 0 5) (iv 7 9) = None)

let test_interval_invalid () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Interval.make: lo > hi") (fun () ->
      ignore (iv 5 3))

(* ---------------- Interval_set ---------------- *)

let test_set_paper_example () =
  (* §IV-C: events (0,110) (70,30) (130,20) (90,30) -> (0,120) (130,150) *)
  let s =
    List.fold_left
      (fun s (off, sz) -> Interval_set.add s (Interval.of_event ~offset:off ~size:sz))
      Interval_set.empty
      [ (0, 110); (70, 30); (130, 20); (90, 30) ]
  in
  Alcotest.(check (list (pair int int))) "merged ranges"
    [ (0, 120); (130, 150) ]
    (List.map (fun m -> (m.Interval.lo, m.Interval.hi)) (Interval_set.to_list s))

let test_set_adjacent_coalesce () =
  let s = Interval_set.of_list [ iv 0 5; iv 5 10 ] in
  Alcotest.(check int) "one member" 1 (Interval_set.cardinal s);
  Alcotest.(check int) "total" 10 (Interval_set.total_length s)

let test_set_bridge () =
  let s = Interval_set.of_list [ iv 0 5; iv 10 15; iv 4 11 ] in
  Alcotest.(check int) "bridged" 1 (Interval_set.cardinal s);
  Alcotest.(check bool) "covers" true (Interval_set.covers s (iv 0 15))

let test_set_covers () =
  let s = Interval_set.of_list [ iv 0 10; iv 20 30 ] in
  Alcotest.(check bool) "inside member" true (Interval_set.covers s (iv 2 8));
  Alcotest.(check bool) "straddles gap" false (Interval_set.covers s (iv 5 25));
  Alcotest.(check bool) "empty probe" true (Interval_set.covers s (iv 15 15))

let test_set_complement () =
  let s = Interval_set.of_list [ iv 2 4; iv 6 8 ] in
  let gaps = Interval_set.complement s ~within:(iv 0 10) in
  Alcotest.(check (list (pair int int))) "gaps"
    [ (0, 2); (4, 6); (8, 10) ]
    (List.map (fun m -> (m.Interval.lo, m.Interval.hi)) (Interval_set.to_list gaps))

let test_set_complement_full_cover () =
  let s = Interval_set.of_list [ iv 0 10 ] in
  Alcotest.(check bool) "no gaps" true
    (Interval_set.is_empty (Interval_set.complement s ~within:(iv 2 8)))

let test_set_overlapping () =
  let s = Interval_set.of_list [ iv 0 5; iv 10 15; iv 20 25 ] in
  Alcotest.(check int) "two overlap" 2 (List.length (Interval_set.overlapping s (iv 4 12)))

let test_set_of_sorted () =
  let l = [ iv 0 3; iv 3 5; iv 8 10 ] in
  Alcotest.(check bool) "of_sorted = of_list" true
    (Interval_set.equal (Interval_set.of_sorted l) (Interval_set.of_list l));
  Alcotest.check_raises "unsorted rejected" (Invalid_argument "Interval_set.of_sorted: unsorted")
    (fun () -> ignore (Interval_set.of_sorted [ iv 5 6; iv 0 1 ]))

let arb_intervals =
  QCheck.(list_of_size (Gen.int_range 0 30) (pair (int_range 0 100) (int_range 0 20)))

let model_membership l x = List.exists (fun (lo, sz) -> x >= lo && x < lo + sz) l

let qcheck_set_matches_model =
  QCheck.Test.make ~name:"interval set membership matches a point model" ~count:300 arb_intervals
    (fun l ->
      let s = Interval_set.of_list (List.map (fun (lo, sz) -> Interval.of_event ~offset:lo ~size:sz) l) in
      let ok = ref true in
      for x = 0 to 130 do
        if Interval_set.mem s x <> model_membership l x then ok := false
      done;
      !ok)

let qcheck_set_invariant =
  QCheck.Test.make ~name:"interval set stays sorted, disjoint, non-touching" ~count:300
    arb_intervals (fun l ->
      let s = Interval_set.of_list (List.map (fun (lo, sz) -> Interval.of_event ~offset:lo ~size:sz) l) in
      let rec check = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) -> a.Interval.hi < b.Interval.lo && check rest
      in
      check (Interval_set.to_list s))

let qcheck_set_total_length =
  QCheck.Test.make ~name:"total_length counts covered points" ~count:300 arb_intervals (fun l ->
      let s = Interval_set.of_list (List.map (fun (lo, sz) -> Interval.of_event ~offset:lo ~size:sz) l) in
      let n = ref 0 in
      for x = 0 to 200 do
        if model_membership l x then incr n
      done;
      Interval_set.total_length s = !n)

let qcheck_union_commutes =
  QCheck.Test.make ~name:"set union is commutative" ~count:200
    QCheck.(pair arb_intervals arb_intervals)
    (fun (la, lb) ->
      let mk l = Interval_set.of_list (List.map (fun (lo, sz) -> Interval.of_event ~offset:lo ~size:sz) l) in
      let a = mk la and b = mk lb in
      Interval_set.equal (Interval_set.union a b) (Interval_set.union b a))

(* Parity with the one-at-a-time construction: a coalesced set has one
   canonical form, so the bulk builders must equal a fold of [add]. *)
let add_fold l = List.fold_left Interval_set.add Interval_set.empty l

(* Unsorted (pair (lo, len)) lists.  Multiples of 5 give many duplicates,
   empty intervals, touching neighbours and nested intervals; each list is
   also repeated in part to force exact duplicates. *)
let arb_messy =
  let open QCheck in
  let piece =
    Gen.(
      oneof
        [ pair (int_range 0 100) (int_range 0 20);
          pair (map (( * ) 5) (int_range 0 20)) (map (( * ) 5) (int_range 0 4)) ])
  in
  let gen =
    Gen.(
      list_size (int_range 0 40) piece >>= fun l ->
      int_range 0 (List.length l) >|= fun k ->
      List.map (fun (lo, sz) -> Interval.of_event ~offset:lo ~size:sz)
        (l @ List.filteri (fun i _ -> i < k) l))
  in
  make ~print:(fun l -> String.concat " " (List.map Interval.to_string l)) gen

let qcheck_of_list_parity =
  QCheck.Test.make ~name:"of_list equals a fold of add" ~count:500 arb_messy (fun l ->
      Interval_set.equal (Interval_set.of_list l) (add_fold l))

let qcheck_union_parity =
  QCheck.Test.make ~name:"union equals folding add over both sets" ~count:500
    (QCheck.pair arb_messy arb_messy)
    (fun (la, lb) ->
      let a = add_fold la and b = add_fold lb in
      Interval_set.equal (Interval_set.union a b)
        (List.fold_left Interval_set.add a (Interval_set.to_list b)))

let qcheck_coalesced_parity =
  QCheck.Test.make ~name:"btree coalesced equals a fold of add" ~count:300
    (QCheck.pair (QCheck.int_range 2 4) arb_messy)
    (fun (degree, l) ->
      let t = Interval_btree.create ~min_degree:degree () in
      List.iteri (fun i ivl -> Interval_btree.insert t ivl i) l;
      Interval_set.equal (Interval_btree.coalesced t) (add_fold l))

(* ---------------- Interval_btree ---------------- *)

let test_btree_empty () =
  let t : unit Interval_btree.t = Interval_btree.create () in
  Alcotest.(check int) "cardinal" 0 (Interval_btree.cardinal t);
  Alcotest.(check int) "height" 0 (Interval_btree.height t);
  Alcotest.(check (list reject)) "no overlaps" [] (Interval_btree.overlapping t (iv 0 100))

let test_btree_insert_query () =
  let t = Interval_btree.create ~min_degree:2 () in
  List.iteri (fun i (lo, hi) -> Interval_btree.insert t (iv lo hi) i)
    [ (0, 10); (20, 30); (5, 15); (40, 50) ];
  Alcotest.(check int) "cardinal" 4 (Interval_btree.cardinal t);
  let hits = Interval_btree.overlapping t (iv 8 22) in
  Alcotest.(check int) "3 overlaps" 3 (List.length hits);
  Interval_btree.check_invariants t

let test_btree_stab () =
  let t = Interval_btree.create ~min_degree:2 () in
  List.iter (fun (lo, hi) -> Interval_btree.insert t (iv lo hi) ()) [ (0, 10); (5, 15); (20, 30) ];
  Alcotest.(check int) "stab 7" 2 (List.length (Interval_btree.stab t 7));
  Alcotest.(check int) "stab 16" 0 (List.length (Interval_btree.stab t 16));
  Alcotest.(check int) "stab at lo" 1 (List.length (Interval_btree.stab t 20))

let test_btree_duplicates () =
  let t = Interval_btree.create ~min_degree:2 () in
  for i = 1 to 5 do
    Interval_btree.insert t (iv 3 9) i
  done;
  Alcotest.(check int) "kept all" 5 (Interval_btree.cardinal t);
  Alcotest.(check int) "all stabbed" 5 (List.length (Interval_btree.stab t 4))

let test_btree_iter_sorted () =
  let t = Interval_btree.create ~min_degree:2 () in
  List.iter (fun lo -> Interval_btree.insert t (iv lo (lo + 5)) ()) [ 30; 10; 50; 0; 20; 40 ];
  let keys = ref [] in
  Interval_btree.iter t (fun k () -> keys := k.Interval.lo :: !keys);
  Alcotest.(check (list int)) "in key order" [ 0; 10; 20; 30; 40; 50 ] (List.rev !keys)

let test_btree_grows_balanced () =
  let t = Interval_btree.create ~min_degree:2 () in
  for i = 0 to 999 do
    Interval_btree.insert t (iv i (i + 3)) i
  done;
  Interval_btree.check_invariants t;
  Alcotest.(check bool) "logarithmic height" true (Interval_btree.height t <= 10);
  Alcotest.(check int) "cardinal" 1000 (Interval_btree.cardinal t)

let test_btree_coalesced_matches_paper () =
  let t = Interval_btree.create () in
  List.iter
    (fun (off, sz) -> Interval_btree.insert t (Interval.of_event ~offset:off ~size:sz) ())
    [ (0, 110); (70, 30); (130, 20); (90, 30) ];
  let s = Interval_btree.coalesced t in
  Alcotest.(check (list (pair int int))) "(0,120) (130,150)"
    [ (0, 120); (130, 150) ]
    (List.map (fun m -> (m.Interval.lo, m.Interval.hi)) (Interval_set.to_list s))

let qcheck_btree_overlap_matches_naive =
  QCheck.Test.make ~name:"btree overlap query matches linear scan" ~count:200
    QCheck.(pair arb_intervals (pair (int_range 0 110) (int_range 1 30)))
    (fun (l, (qlo, qsz)) ->
      let t = Interval_btree.create ~min_degree:2 () in
      List.iteri (fun i (lo, sz) -> Interval_btree.insert t (Interval.of_event ~offset:lo ~size:sz) i) l;
      Interval_btree.check_invariants t;
      let probe = Interval.of_event ~offset:qlo ~size:qsz in
      let expected =
        List.filteri (fun _ _ -> true) l
        |> List.mapi (fun i (lo, sz) -> (Interval.of_event ~offset:lo ~size:sz, i))
        |> List.filter (fun (ivl, _) -> Interval.overlaps ivl probe)
        |> List.length
      in
      List.length (Interval_btree.overlapping t probe) = expected)

let qcheck_btree_random_order_invariants =
  QCheck.Test.make ~name:"btree invariants hold under random insertion orders" ~count:100
    QCheck.(pair (int_range 2 5) (list_of_size (Gen.int_range 0 200) (int_range 0 1000)))
    (fun (degree, keys) ->
      let t = Interval_btree.create ~min_degree:degree () in
      List.iter (fun lo -> Interval_btree.insert t (iv lo (lo + 7)) lo) keys;
      Interval_btree.check_invariants t;
      Interval_btree.cardinal t = List.length keys)

let suite =
  ( "interval",
    [ Alcotest.test_case "interval basics" `Quick test_interval_basics;
      Alcotest.test_case "interval of_event" `Quick test_interval_of_event;
      Alcotest.test_case "interval overlap/touch" `Quick test_interval_overlap_touch;
      Alcotest.test_case "interval union/inter" `Quick test_interval_union_inter;
      Alcotest.test_case "interval invalid" `Quick test_interval_invalid;
      Alcotest.test_case "set: paper IV-C example" `Quick test_set_paper_example;
      Alcotest.test_case "set: adjacent coalesce" `Quick test_set_adjacent_coalesce;
      Alcotest.test_case "set: bridging add" `Quick test_set_bridge;
      Alcotest.test_case "set: covers" `Quick test_set_covers;
      Alcotest.test_case "set: complement" `Quick test_set_complement;
      Alcotest.test_case "set: complement full cover" `Quick test_set_complement_full_cover;
      Alcotest.test_case "set: overlapping" `Quick test_set_overlapping;
      Alcotest.test_case "set: of_sorted" `Quick test_set_of_sorted;
      QCheck_alcotest.to_alcotest qcheck_set_matches_model;
      QCheck_alcotest.to_alcotest qcheck_set_invariant;
      QCheck_alcotest.to_alcotest qcheck_set_total_length;
      QCheck_alcotest.to_alcotest qcheck_union_commutes;
      QCheck_alcotest.to_alcotest qcheck_of_list_parity;
      QCheck_alcotest.to_alcotest qcheck_union_parity;
      QCheck_alcotest.to_alcotest qcheck_coalesced_parity;
      Alcotest.test_case "btree: empty" `Quick test_btree_empty;
      Alcotest.test_case "btree: insert and query" `Quick test_btree_insert_query;
      Alcotest.test_case "btree: stab" `Quick test_btree_stab;
      Alcotest.test_case "btree: duplicates kept" `Quick test_btree_duplicates;
      Alcotest.test_case "btree: iter sorted" `Quick test_btree_iter_sorted;
      Alcotest.test_case "btree: grows balanced" `Quick test_btree_grows_balanced;
      Alcotest.test_case "btree: coalesced paper example" `Quick test_btree_coalesced_matches_paper;
      QCheck_alcotest.to_alcotest qcheck_btree_overlap_matches_naive;
      QCheck_alcotest.to_alcotest qcheck_btree_random_order_invariants ] )
