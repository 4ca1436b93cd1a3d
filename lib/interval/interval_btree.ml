type 'a node = {
  mutable keys : (Interval.t * 'a) array; (* sorted by Interval.compare *)
  mutable kids : 'a node array;           (* empty iff leaf; else length keys+1 *)
  mutable max_hi : int;                   (* max interval end in this subtree *)
}

type 'a t = { mutable root : 'a node; degree : int; mutable cardinal : int }

let leaf_node () = { keys = [||]; kids = [||]; max_hi = min_int }

let is_leaf n = Array.length n.kids = 0

let recompute_max_hi n =
  let m = ref min_int in
  Array.iter (fun (iv, _) -> if iv.Interval.hi > !m then m := iv.Interval.hi) n.keys;
  Array.iter (fun k -> if k.max_hi > !m then m := k.max_hi) n.kids;
  n.max_hi <- !m

let create ?(min_degree = 16) () =
  if min_degree < 2 then invalid_arg "Interval_btree.create: min_degree < 2";
  { root = leaf_node (); degree = min_degree; cardinal = 0 }

let cardinal t = t.cardinal

let height t =
  if t.cardinal = 0 then 0
  else begin
    let rec go n acc = if is_leaf n then acc else go n.kids.(0) (acc + 1) in
    go t.root 1
  end

(* Split the full child [i] of [parent]: median key moves up. *)
let split_child t parent i =
  let d = t.degree in
  let child = parent.kids.(i) in
  assert (Array.length child.keys = (2 * d) - 1);
  let median = child.keys.(d - 1) in
  let right =
    { keys = Array.sub child.keys d (d - 1);
      kids = (if is_leaf child then [||] else Array.sub child.kids d d);
      max_hi = min_int }
  in
  child.keys <- Array.sub child.keys 0 (d - 1);
  if not (is_leaf child) then child.kids <- Array.sub child.kids 0 d;
  recompute_max_hi child;
  recompute_max_hi right;
  let nkeys = Array.length parent.keys in
  let keys' = Array.make (nkeys + 1) median in
  Array.blit parent.keys 0 keys' 0 i;
  Array.blit parent.keys i keys' (i + 1) (nkeys - i);
  let kids' = Array.make (nkeys + 2) right in
  Array.blit parent.kids 0 kids' 0 (i + 1);
  Array.blit parent.kids (i + 1) kids' (i + 2) (nkeys - i);
  kids'.(i) <- child;
  kids'.(i + 1) <- right;
  parent.keys <- keys';
  parent.kids <- kids'

let key_position keys iv =
  (* First position whose key is >= iv. *)
  let n = Array.length keys in
  let rec go i = if i < n && Interval.compare (fst keys.(i)) iv < 0 then go (i + 1) else i in
  go 0

let rec insert_nonfull t n iv payload =
  if iv.Interval.hi > n.max_hi then n.max_hi <- iv.Interval.hi;
  let pos = key_position n.keys iv in
  if is_leaf n then begin
    let nkeys = Array.length n.keys in
    let keys' = Array.make (nkeys + 1) (iv, payload) in
    Array.blit n.keys 0 keys' 0 pos;
    Array.blit n.keys pos keys' (pos + 1) (nkeys - pos);
    n.keys <- keys'
  end
  else begin
    let pos =
      if Array.length n.kids.(pos).keys = (2 * t.degree) - 1 then begin
        split_child t n pos;
        if Interval.compare (fst n.keys.(pos)) iv < 0 then pos + 1 else pos
      end
      else pos
    in
    insert_nonfull t n.kids.(pos) iv payload
  end

let insert t iv payload =
  let root = t.root in
  if Array.length root.keys = (2 * t.degree) - 1 then begin
    let new_root = { keys = [||]; kids = [| root |]; max_hi = root.max_hi } in
    t.root <- new_root;
    split_child t new_root 0
  end;
  insert_nonfull t t.root iv payload;
  t.cardinal <- t.cardinal + 1

let overlapping t probe =
  if Interval.is_empty probe then []
  else begin
    let acc = ref [] in
    let rec visit n =
      if n.max_hi > probe.Interval.lo then begin
        let nkeys = Array.length n.keys in
        let rec walk i =
          (* Visit child i, then key i, until keys start at or past probe.hi. *)
          if not (is_leaf n) then visit n.kids.(i);
          if i < nkeys then begin
            let iv, payload = n.keys.(i) in
            if iv.Interval.lo < probe.Interval.hi then begin
              if Interval.overlaps iv probe then acc := (iv, payload) :: !acc;
              walk (i + 1)
            end
          end
        in
        walk 0
      end
    in
    visit t.root;
    List.rev !acc
  end

let stab t x = overlapping t (Interval.make x (x + 1))

let iter t f =
  let rec visit n =
    let nkeys = Array.length n.keys in
    for i = 0 to nkeys do
      if not (is_leaf n) then visit n.kids.(i);
      if i < nkeys then begin
        let iv, payload = n.keys.(i) in
        f iv payload
      end
    done
  in
  if t.cardinal > 0 then visit t.root

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun iv p -> acc := f !acc iv p);
  !acc

let coalesced t = Interval_set.of_sorted (List.rev (fold t ~init:[] ~f:(fun acc iv _ -> iv :: acc)))

let check_invariants t =
  let d = t.degree in
  let fail msg = failwith ("Interval_btree invariant: " ^ msg) in
  let rec visit n depth is_root =
    let nkeys = Array.length n.keys in
    if not is_root && nkeys < d - 1 then fail "underfull node";
    if nkeys > (2 * d) - 1 then fail "overfull node";
    for i = 0 to nkeys - 2 do
      if Interval.compare (fst n.keys.(i)) (fst n.keys.(i + 1)) > 0 then fail "key order"
    done;
    let m = ref min_int in
    Array.iter (fun (iv, _) -> m := max !m iv.Interval.hi) n.keys;
    if is_leaf n then begin
      if !m <> n.max_hi && nkeys > 0 then fail "leaf max_hi";
      [ depth ]
    end
    else begin
      if Array.length n.kids <> nkeys + 1 then fail "kid count";
      let depths = ref [] in
      Array.iteri
        (fun i k ->
          m := max !m k.max_hi;
          (* separator ordering *)
          if i < nkeys then begin
            Array.iter
              (fun (iv, _) ->
                if Interval.compare iv (fst n.keys.(i)) > 0 then fail "child keys exceed separator")
              k.keys
          end;
          if i > 0 then begin
            Array.iter
              (fun (iv, _) ->
                if Interval.compare iv (fst n.keys.(i - 1)) < 0 then fail "child keys below separator")
              k.keys
          end;
          depths := visit k (depth + 1) false @ !depths)
        n.kids;
      if !m <> n.max_hi then fail "max_hi";
      !depths
    end
  in
  if t.cardinal > 0 then begin
    match List.sort_uniq compare (visit t.root 0 true) with
    | [] | [ _ ] -> ()
    | _ -> fail "leaves at different depths"
  end
