type flat = {
  origin : float array;  (* a point on the carrier plane *)
  basis_u : float array; (* orthonormal in-plane basis *)
  basis_v : float array;
  plane_normal : float array; (* unit normal *)
  poly : Hull2d.t;             (* hull in (u, v) coordinates *)
  lifted : float array list;   (* polygon vertices back in ambient space *)
}

type shape =
  | Point of float array
  | Segment of float array * float array
  | Poly2 of Hull2d.t
  | Flat of flat
  | Poly3 of Hull3d.t

type t = { dim : int; shape : shape }

let geom_eps = 1e-7

let dedup points =
  let tbl = Hashtbl.create 64 in
  List.filter
    (fun p ->
      if Hashtbl.mem tbl p then false
      else begin
        Hashtbl.add tbl p ();
        true
      end)
    points

let normalize v =
  let n = Vec.norm v in
  if n <= geom_eps then invalid_arg "Hull: cannot normalize null vector";
  Vec.scale (1.0 /. n) v

(* Distance from [q] to the line through [a] with unit direction [u]. *)
let line_dist a u q =
  let w = Vec.sub q a in
  let t = Vec.dot w u in
  Vec.dist w (Vec.scale t u)

let farthest_from p points =
  List.fold_left
    (fun (best, best_d) q ->
      let d = Vec.dist_sq p q in
      if d > best_d then (q, d) else (best, best_d))
    (p, 0.0) points

(* Extreme pair along unit direction [u] starting at [a]. *)
let segment_extremes a u points =
  let proj q = Vec.dot (Vec.sub q a) u in
  let lo, hi =
    List.fold_left
      (fun (lo, hi) q ->
        let t = proj q in
        let lo = if t < proj lo then q else lo in
        let hi = if t > proj hi then q else hi in
        (lo, hi))
      (a, a) points
  in
  (lo, hi)

let plane_basis u normal =
  let v = normalize (Vec.cross3 normal u) in
  (u, v)

let project2 origin bu bv q =
  let w = Vec.sub q origin in
  [| Vec.dot w bu; Vec.dot w bv |]

let lift origin bu bv p2 =
  Vec.add origin (Vec.add (Vec.scale p2.(0) bu) (Vec.scale p2.(1) bv))

let of_points points =
  let points = dedup points in
  (match points with [] -> invalid_arg "Hull.of_points: empty" | _ -> ());
  let p0 = List.hd points in
  let dim = Array.length p0 in
  assert (dim >= 1 && dim <= 3);
  let shape =
    let p1, d01 = farthest_from p0 points in
    if d01 <= geom_eps then Point p0
    else begin
      let u = normalize (Vec.sub p1 p0) in
      let off_line, _ =
        List.fold_left
          (fun (best, best_d) q ->
            let d = line_dist p0 u q in
            if d > best_d then (q, d) else (best, best_d))
          (p0, geom_eps) points
      in
      let collinear = Vec.equal ~eps:geom_eps off_line p0 in
      if collinear then begin
        let a, b = segment_extremes p0 u points in
        Segment (a, b)
      end
      else if dim = 1 then assert false
      else if dim = 2 then Poly2 (Hull2d.of_points points)
      else begin
        (* 3D: coplanar sets drop to an embedded polygon. *)
        let normal = normalize (Vec.cross3 (Vec.sub p1 p0) (Vec.sub off_line p0)) in
        let coplanar =
          List.for_all (fun q -> Float.abs (Vec.dot normal (Vec.sub q p0)) <= geom_eps *. 10.0) points
        in
        if coplanar then begin
          let bu, bv = plane_basis u normal in
          let projected = List.map (project2 p0 bu bv) points in
          let poly = Hull2d.of_points projected in
          let lifted = List.map (lift p0 bu bv) (Hull2d.vertices poly) in
          Flat { origin = p0; basis_u = bu; basis_v = bv; plane_normal = normal; poly; lifted }
        end
        else Poly3 (Hull3d.of_points points)
      end
    end
  in
  { dim; shape }

let of_int_points pts = of_points (List.map Vec.of_int_point pts)

let dim t = t.dim

let affine_dim t =
  match t.shape with
  | Point _ -> 0
  | Segment _ -> 1
  | Poly2 _ | Flat _ -> 2
  | Poly3 _ -> 3

let vertices t =
  match t.shape with
  | Point p -> [ p ]
  | Segment (a, b) -> [ a; b ]
  | Poly2 h -> Hull2d.vertices h
  | Flat f -> f.lifted
  | Poly3 h -> Hull3d.vertices h

let segment_contains eps a b p =
  let ab = Vec.sub b a in
  let len2 = Vec.dot ab ab in
  let t = if len2 <= 0.0 then 0.0 else Float.max 0.0 (Float.min 1.0 (Vec.dot (Vec.sub p a) ab /. len2)) in
  Vec.dist p (Vec.add a (Vec.scale t ab)) <= eps

let contains ?(eps = geom_eps) t p =
  match t.shape with
  | Point q -> Vec.dist q p <= eps
  | Segment (a, b) -> segment_contains eps a b p
  | Poly2 h -> Hull2d.contains ~eps h p
  | Flat f ->
    Float.abs (Vec.dot f.plane_normal (Vec.sub p f.origin)) <= eps *. 10.0
    && Hull2d.contains ~eps f.poly (project2 f.origin f.basis_u f.basis_v p)
  | Poly3 h -> Hull3d.contains ~eps h p

let contains_int ?eps t p = contains ?eps t (Vec.of_int_point p)

let centroid t = Vec.centroid (vertices t)

let bbox t = Bbox.of_points (vertices t)

let center_distance a b = Vec.dist (centroid a) (centroid b)

(* [Vec.dist], inlined so the pairwise loop below allocates nothing. *)
let[@inline] dist p q =
  let s = ref 0.0 in
  for i = 0 to Array.length p - 1 do
    let d = p.(i) -. q.(i) in
    s := !s +. (d *. d)
  done;
  sqrt !s

let boundary_distance a b =
  let vb = vertices b in
  let best = ref infinity in
  List.iter
    (fun p ->
      let rec scan = function
        | [] -> ()
        | q :: rest ->
          let d = dist p q in
          if d < !best then best := d;
          scan rest
      in
      scan vb)
    (vertices a);
  !best

let merge a b = of_points (vertices a @ vertices b)

let measure t =
  match t.shape with
  | Point _ -> 0.0
  | Segment (a, b) -> Vec.dist a b
  | Poly2 h -> Hull2d.area h
  | Flat f -> Hull2d.area f.poly
  | Poly3 h -> Hull3d.volume h

let iter_lattice t f =
  let buf_ok p = contains ~eps:1e-6 t (Vec.of_int_point p) in
  Bbox.iter_lattice (bbox t) (fun ip -> if buf_ok ip then f ip)

let lattice_count t =
  let n = ref 0 in
  iter_lattice t (fun _ -> incr n);
  !n

type halfspace = { coeffs : float array; equality : bool; rhs : float }

let le coeffs rhs = { coeffs; equality = false; rhs }
let eq coeffs rhs = { coeffs; equality = true; rhs }

let axis d k v =
  let a = Array.make d 0.0 in
  a.(k) <- v;
  a

(* Extent bounds of points projected on direction [u] anchored at [a]. *)
let direction_bounds a u points =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) q ->
        let t = Vec.dot (Vec.sub q a) u in
        (Float.min lo t, Float.max hi t))
      (0.0, 0.0) points
  in
  [ le (Vec.scale (-1.0) u) (-.lo -. Vec.dot u a); le u (hi +. Vec.dot u a) ]

(* Line equalities: for every coordinate pair (i, j), points on the line
   through [a] with direction [d] satisfy d_j*(x_i - a_i) = d_i*(x_j - a_j).
   Pairs where both components vanish give trivial constraints and are
   dropped. *)
let line_equalities a d =
  let n = Array.length a in
  let out = ref [] in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      if Float.abs d.(i) > geom_eps || Float.abs d.(j) > geom_eps then begin
        let coeffs = Array.make n 0.0 in
        coeffs.(i) <- d.(j);
        coeffs.(j) <- -.d.(i);
        out := eq coeffs ((d.(j) *. a.(i)) -. (d.(i) *. a.(j))) :: !out
      end
    done
  done;
  !out

let halfspaces t =
  match t.shape with
  | Point p -> List.init t.dim (fun k -> eq (axis t.dim k 1.0) p.(k))
  | Segment (a, b) ->
    let d = Vec.sub b a in
    let u = normalize d in
    line_equalities a d @ direction_bounds a u [ a; b ]
  | Poly2 h ->
    let v = Array.of_list (Hull2d.vertices h) in
    let n = Array.length v in
    List.init n (fun i ->
        let a = v.(i) and b = v.((i + 1) mod n) in
        (* inside (ccw) means cross2 a b x >= 0, i.e.
           (b1-a1)*x0 + (a0-b0)*x1 <= a0*b1 - a1*b0 *)
        let coeffs = [| b.(1) -. a.(1); a.(0) -. b.(0) |] in
        le coeffs ((a.(0) *. b.(1)) -. (a.(1) *. b.(0))))
  | Flat f ->
    let plane = eq f.plane_normal (Vec.dot f.plane_normal f.origin) in
    let v = Array.of_list (Hull2d.vertices f.poly) in
    let n = Array.length v in
    let lifted_edges =
      List.init n (fun i ->
          let a = v.(i) and b = v.((i + 1) mod n) in
          let alpha = b.(1) -. a.(1) and beta = a.(0) -. b.(0) in
          let c = (a.(0) *. b.(1)) -. (a.(1) *. b.(0)) in
          (* u-coordinate of x is bu·(x - origin), v-coordinate bv·(x - origin) *)
          let coeffs = Vec.add (Vec.scale alpha f.basis_u) (Vec.scale beta f.basis_v) in
          le coeffs (c +. Vec.dot coeffs f.origin))
    in
    plane :: lifted_edges
  | Poly3 h ->
    List.map
      (fun (a, b, c) ->
        let normal = Vec.cross3 (Vec.sub b a) (Vec.sub c a) in
        le normal (Vec.dot normal a))
      (Hull3d.faces h)

let satisfies_halfspaces ?(eps = geom_eps) constraints p =
  List.for_all
    (fun h ->
      let v = Vec.dot h.coeffs p -. h.rhs in
      let tol = eps *. (1.0 +. Vec.norm h.coeffs) in
      if h.equality then Float.abs v <= tol *. 10.0 else v <= tol)
    constraints

(* Slack added to every constraint when solving a row: far above the
   1e-6-scaled tolerance [contains] accepts, far below one cell. *)
let row_slack = 1e-4

let iter_rows t f =
  let lo, hi = Bbox.lattice_bounds (bbox t) in
  let last = t.dim - 1 in
  let feasible = ref true in
  Array.iteri (fun k l -> if l > hi.(k) then feasible := false) lo;
  if !feasible then begin
    let hs =
      Array.of_list
        (List.map (fun h -> (h, row_slack *. (1.0 +. Vec.norm h.coeffs))) (halfspaces t))
    in
    let cur = Array.copy lo in
    let inside x =
      cur.(last) <- x;
      contains ~eps:1e-6 t (Vec.of_int_point cur)
    in
    (* Candidate interval along the last axis: every constraint, with
       the outer coordinates of [cur] fixed and [row_slack] added, bounds
       x from one side (both sides for equalities).  A constraint that
       does not involve x can only empty the row. *)
    let candidate () =
      let xlo = ref (float_of_int lo.(last)) and xhi = ref (float_of_int hi.(last)) in
      let empty = ref false in
      Array.iter
        (fun (h, slack) ->
          let a = h.coeffs.(last) in
          let s = ref h.rhs in
          for k = 0 to last - 1 do
            s := !s -. (h.coeffs.(k) *. float_of_int cur.(k))
          done;
          let upper = !s +. slack and lower = !s -. slack in
          if a = 0.0 then begin
            if upper < 0.0 || (h.equality && lower > 0.0) then empty := true
          end
          else if a > 0.0 then begin
            xhi := Float.min !xhi (upper /. a);
            if h.equality then xlo := Float.max !xlo (lower /. a)
          end
          else begin
            xlo := Float.max !xlo (upper /. a);
            if h.equality then xhi := Float.min !xhi (lower /. a)
          end)
        hs;
      (* widen by one cell, clamp to the bbox in floats, then round *)
      let clo = Float.max (float_of_int lo.(last)) (Float.floor !xlo -. 1.0) in
      let chi = Float.min (float_of_int hi.(last)) (Float.ceil !xhi +. 1.0) in
      if !empty || clo > chi then None else Some (int_of_float clo, int_of_float chi)
    in
    (* [contains] is a conjunction of convex tests, so a row's inside
       points form one interval; trimming and extending the candidate's
       ends with [contains] itself finds that interval exactly. *)
    let row () =
      match candidate () with
      | None -> ()
      | Some (clo, chi) ->
        let a = ref clo in
        if inside !a then
          while !a > lo.(last) && inside (!a - 1) do
            decr a
          done
        else begin
          incr a;
          while !a <= chi && not (inside !a) do
            incr a
          done
        end;
        if !a <= chi then begin
          let b = ref chi in
          if inside !b then
            while !b < hi.(last) && inside (!b + 1) do
              incr b
            done
          else begin
            (* [a <= chi] is inside, so [chi] outside means [a < chi] *)
            decr b;
            while not (inside !b) do
              decr b
            done
          end;
          cur.(last) <- !a;
          f cur (!b - !a + 1)
        end
    in
    let rec walk k =
      if k = last then row ()
      else
        for v = lo.(k) to hi.(k) do
          cur.(k) <- v;
          walk (k + 1)
        done
    in
    walk 0
  end

let pp fmt t =
  let kind =
    match t.shape with
    | Point _ -> "point"
    | Segment _ -> "segment"
    | Poly2 _ -> "polygon"
    | Flat _ -> "planar-polygon"
    | Poly3 _ -> "polytope"
  in
  Format.fprintf fmt "@[<h>hull(%s, %d vertices, center %s)@]" kind
    (List.length (vertices t))
    (Vec.to_string (centroid t))
