open Kondo_dataarray

type t = {
  name : string;
  description : string;
  shape : Shape.t;
  dtype : Dtype.t;
  param_space : (float * float) array;
  plan : float array -> Hyperslab.t list;
  truth : (int array -> bool) option;
  dataset : string;
}

let arity t = Array.length t.param_space

let clamp_params t v =
  Array.mapi
    (fun k x ->
      let lo, hi = t.param_space.(k) in
      Float.max lo (Float.min hi (Float.round x)))
    v

let in_space t v =
  Array.length v = arity t
  &&
  let ok = ref true in
  Array.iteri
    (fun k x ->
      let lo, hi = t.param_space.(k) in
      if x < lo || x > hi then ok := false)
    v;
  !ok

let access t v =
  let set = Index_set.create t.shape in
  List.iter (fun slab -> Index_set.add_slab set slab) (t.plan v);
  set

let is_useful t v =
  (* A plan is useful when at least one in-bounds index is selected. *)
  List.exists
    (fun slab ->
      match Hyperslab.iter_runs ~clip:t.shape slab (fun _ _ -> raise_notrace Exit) with
      | () -> false
      | exception Exit -> true)
    (t.plan v)

let iter_access t v f =
  List.iter (fun slab -> Hyperslab.iter ~clip:t.shape slab f) (t.plan v)

let coverage t v f =
  let useful = ref false in
  iter_access t v (fun idx ->
      useful := true;
      f (2 + Shape.linearize t.shape idx));
  f (if !useful then 1 else 0)

let run_io t file v =
  let n = ref 0 in
  List.iter
    (fun slab -> Kondo_h5.File.read_slab file t.dataset slab (fun _ _ -> incr n))
    (t.plan v);
  !n

let iter_param_space t f =
  let m = arity t in
  let v = Array.make m 0.0 in
  let rec walk k =
    if k = m then f v
    else begin
      let lo, hi = t.param_space.(k) in
      let lo = int_of_float (Float.ceil lo) and hi = int_of_float (Float.floor hi) in
      for x = lo to hi do
        v.(k) <- float_of_int x;
        walk (k + 1)
      done
    end
  in
  walk 0

let param_count t =
  let n = ref 1 in
  Array.iter
    (fun (lo, hi) ->
      let lo = int_of_float (Float.ceil lo) and hi = int_of_float (Float.floor hi) in
      n := !n * max 0 (hi - lo + 1))
    t.param_space;
  !n

let exhaustive_truth t =
  let set = Index_set.create t.shape in
  iter_param_space t (fun v ->
      List.iter (fun slab -> Index_set.add_slab set slab) (t.plan v));
  set

(* Keyed on the program value itself: an entry lives exactly as long as
   its program does. *)
module Truth_memo = Ephemeron.K1.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash t = Hashtbl.hash (t.name, Shape.dims t.shape)
end)

let truth_memo : Index_set.t Truth_memo.t = Truth_memo.create 16

let ground_truth t =
  match Truth_memo.find_opt truth_memo t with
  | Some s -> s
  | None ->
    let s =
      match t.truth with
      | Some pred ->
        let set = Index_set.create t.shape in
        Shape.iter t.shape (fun idx -> if pred idx then Index_set.add set idx);
        set
      | None -> exhaustive_truth t
    in
    Truth_memo.replace truth_memo t s;
    s

let with_dataset t name = { t with dataset = name; name = t.name ^ "@" ^ name }
