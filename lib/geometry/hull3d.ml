type face = { a : int; b : int; c : int; normal : float array; offset : float; scale : float }
(* Outward-oriented triangle over point indices: x is outside when
   dot normal x > offset.  [scale] is [1 + |normal|], the factor every
   tolerance test multiplies its epsilon by. *)

type t = { points : float array array; face_list : face list; vertex_ids : int list }

exception Degenerate

let eps = 1e-9

(* [Vec.dot n p] for 3-vectors, summed in the same order.  The face
   kernels below inline it (and [Vec.sub], [Vec.cross3], [Vec.norm]) so
   building and testing faces allocates no temporary vector or boxed
   float, with bit-identical results. *)
let[@inline] dot3 n p = 0.0 +. (n.(0) *. p.(0)) +. (n.(1) *. p.(1)) +. (n.(2) *. p.(2))

let make_face points a b c =
  let pa = points.(a) and pb = points.(b) and pc = points.(c) in
  let u0 = pb.(0) -. pa.(0) and u1 = pb.(1) -. pa.(1) and u2 = pb.(2) -. pa.(2) in
  let v0 = pc.(0) -. pa.(0) and v1 = pc.(1) -. pa.(1) and v2 = pc.(2) -. pa.(2) in
  let normal = [| (u1 *. v2) -. (u2 *. v1); (u2 *. v0) -. (u0 *. v2); (u0 *. v1) -. (u1 *. v0) |] in
  { a; b; c; normal; offset = dot3 normal pa; scale = 1.0 +. sqrt (dot3 normal normal) }

let orient_away points f interior =
  (* Flip the face if the interior reference point is on its positive side. *)
  if dot3 f.normal interior > f.offset +. eps then make_face points f.b f.a f.c else f

let[@inline] signed_dist f p = dot3 f.normal p -. f.offset

let face_tolerance f = eps *. f.scale

(* Pick four affinely independent seed points, favouring spread. *)
let initial_tetrahedron points =
  let n = Array.length points in
  if n < 4 then raise Degenerate;
  let p0 = 0 in
  let far_from i j_excl =
    let best = ref (-1) and best_d = ref 0.0 in
    for j = 0 to n - 1 do
      if not (List.mem j j_excl) then begin
        let a = points.(i) and b = points.(j) in
        let d0 = a.(0) -. b.(0) and d1 = a.(1) -. b.(1) and d2 = a.(2) -. b.(2) in
        let d = 0.0 +. (d0 *. d0) +. (d1 *. d1) +. (d2 *. d2) in
        if d > !best_d then begin
          best := j;
          best_d := d
        end
      end
    done;
    if !best_d <= eps then raise Degenerate;
    !best
  in
  let p1 = far_from p0 [ p0 ] in
  (* Farthest from the line p0-p1. *)
  let dir = Vec.sub points.(p1) points.(p0) in
  let p2 = ref (-1) and best = ref eps in
  for j = 0 to n - 1 do
    (* |dir x (q - p0)|, as Vec.norm (Vec.cross3 dir (Vec.sub q p0)) *)
    let q = points.(j) and o = points.(p0) in
    let v0 = q.(0) -. o.(0) and v1 = q.(1) -. o.(1) and v2 = q.(2) -. o.(2) in
    let c0 = (dir.(1) *. v2) -. (dir.(2) *. v1)
    and c1 = (dir.(2) *. v0) -. (dir.(0) *. v2)
    and c2 = (dir.(0) *. v1) -. (dir.(1) *. v0) in
    let d = sqrt (0.0 +. (c0 *. c0) +. (c1 *. c1) +. (c2 *. c2)) in
    if d > !best then begin
      p2 := j;
      best := d
    end
  done;
  if !p2 < 0 then raise Degenerate;
  let p2 = !p2 in
  (* Farthest from the plane p0-p1-p2. *)
  let normal = Vec.cross3 dir (Vec.sub points.(p2) points.(p0)) in
  let nn = Vec.norm normal in
  let p3 = ref (-1) and best = ref (eps *. (1.0 +. nn)) in
  for j = 0 to n - 1 do
    let q = points.(j) and o = points.(p0) in
    let d =
      Float.abs
        (0.0
        +. (normal.(0) *. (q.(0) -. o.(0)))
        +. (normal.(1) *. (q.(1) -. o.(1)))
        +. (normal.(2) *. (q.(2) -. o.(2))))
    in
    if d > !best then begin
      p3 := j;
      best := d
    end
  done;
  if !p3 < 0 then raise Degenerate;
  (p0, p1, p2, !p3)

(* The face list, newest face first, as a mutable linked list: faces a
   point sees are unlinked in place and new faces are pushed at the head,
   which keeps the order filtering the list and prepending would give
   without copying the list for every point that extends the hull. *)
type chain = Nil | Cons of { face : face; mutable next : chain }

let of_points input =
  List.iter (fun p -> assert (Array.length p = 3)) input;
  (* Not [Array.of_list]: for more than 256 points it would force a minor
     collection whenever the first point is still young, and the carver
     builds hundreds of hulls from freshly converted points. *)
  let points = Array.make (List.length input) [||] in
  List.iteri (fun i p -> points.(i) <- p) input;
  let n = Array.length points in
  let i0, i1, i2, i3 = initial_tetrahedron points in
  let interior =
    Vec.centroid [ points.(i0); points.(i1); points.(i2); points.(i3) ]
  in
  let head = ref Nil in
  let push f = head := Cons { face = f; next = !head } in
  (* Directed edges [a -> b] of the visible faces, coded [a * n + b]. *)
  let edges = ref (Array.make 96 0) and nedges = ref 0 in
  let add_edge a b =
    if !nedges = Array.length !edges then begin
      let grown = Array.make (2 * !nedges) 0 in
      Array.blit !edges 0 grown 0 !nedges;
      edges := grown
    end;
    !edges.(!nedges) <- (a * n) + b;
    incr nedges
  in
  let undirected e = let a = e / n and b = e mod n in if a < b then (a * n) + b else (b * n) + a in
  List.iter
    (fun (a, b, c) -> push (orient_away points (make_face points a b c) interior))
    [ (i1, i2, i3); (i0, i2, i3); (i0, i1, i3); (i0, i1, i2) ];
  for p = 0 to n - 1 do
    if p <> i0 && p <> i1 && p <> i2 && p <> i3 then begin
      let pt = points.(p) in
      (* Unlink the faces [pt] sees and collect their edges. *)
      nedges := 0;
      let rec walk prev = function
        | Nil -> ()
        | Cons c as cell ->
          let f = c.face in
          if signed_dist f pt > face_tolerance f then begin
            add_edge f.c f.a;
            add_edge f.b f.c;
            add_edge f.a f.b;
            (match prev with Nil -> head := c.next | Cons pc -> pc.next <- c.next);
            walk prev c.next
          end
          else walk cell c.next
      in
      walk Nil !head;
      if !nedges > 0 then begin
        (* Horizon edges appear in exactly one visible face; new faces are
           made from them in decreasing order of the undirected edge. *)
        let es = Array.sub !edges 0 !nedges in
        Array.sort (fun x y -> Int.compare (undirected x) (undirected y)) es;
        let k = ref (Array.length es - 1) in
        while !k >= 0 do
          let key = undirected es.(!k) in
          let j = ref !k in
          while !j > 0 && undirected es.(!j - 1) = key do
            decr j
          done;
          if !j = !k then push (orient_away points (make_face points (es.(!k) / n) (es.(!k) mod n) p) interior);
          k := !j - 1
        done
      end
    end
  done;
  let rec to_list acc = function Nil -> List.rev acc | Cons c -> to_list (c.face :: acc) c.next in
  let face_list = to_list [] !head in
  let vertex_ids =
    List.sort_uniq compare (List.concat_map (fun f -> [ f.a; f.b; f.c ]) face_list)
  in
  { points; face_list; vertex_ids }

let vertices t = List.map (fun i -> t.points.(i)) t.vertex_ids

let faces t = List.map (fun f -> (t.points.(f.a), t.points.(f.b), t.points.(f.c))) t.face_list

let contains ?(eps = 1e-7) t p =
  List.for_all (fun f -> signed_dist f p <= eps *. f.scale) t.face_list

let centroid t = Vec.centroid (vertices t)

let volume t =
  let c = centroid t in
  List.fold_left
    (fun acc f ->
      let pa = Vec.sub t.points.(f.a) c
      and pb = Vec.sub t.points.(f.b) c
      and pc = Vec.sub t.points.(f.c) c in
      acc +. Float.abs (Vec.dot pa (Vec.cross3 pb pc)) /. 6.0)
    0.0 t.face_list
