(** Dimension-generic convex hulls over index-space points.

    The carver (paper Alg. 2) manipulates convex hulls of integer index
    points in 1, 2 or 3 dimensions.  Point sets observed inside a single
    grid cell are frequently degenerate — a lone index, a row of indices,
    or (in 3D) a plane of indices — so this module represents every
    affine-dimension case explicitly rather than failing:

    - 0-dimensional: a single point,
    - 1-dimensional: a segment between the two extreme points,
    - 2-dimensional: a convex polygon ({!Hull2d}), embedded in its carrier
      plane when the ambient space is 3D,
    - 3-dimensional: a convex polytope ({!Hull3d}).

    All operations treat boundary points as inside. *)

type t

val of_points : float array list -> t
(** Convex hull of a non-empty list of points that all share one
    dimensionality (1–3). *)

val of_int_points : int array list -> t
(** Convenience: converts integer index tuples and builds the hull. *)

val dim : t -> int
(** Ambient dimensionality. *)

val affine_dim : t -> int
(** Dimension actually spanned: 0 point, 1 segment, 2 polygon, 3 polytope. *)

val vertices : t -> float array list
(** Extreme points defining the hull. *)

val contains : ?eps:float -> t -> float array -> bool

val contains_int : ?eps:float -> t -> int array -> bool

val centroid : t -> float array
(** Centroid of the hull vertices — the paper's hull "center" (§IV-B). *)

val bbox : t -> Bbox.t

val center_distance : t -> t -> float
(** Euclidean distance between hull centers. *)

val boundary_distance : t -> t -> float
(** Minimum pairwise distance between the vertex sets of two hulls — the
    paper's hull-boundary distance (§IV-B). *)

val merge : t -> t -> t
(** Hull of the union of the two hulls' vertices.  Equivalent to the hull
    of the union of the original point sets (paper §IV-B, citing the
    standard merge argument). *)

val measure : t -> float
(** Length / area / volume according to {!affine_dim} (0 for a point). *)

val iter_lattice : t -> (int array -> unit) -> unit
(** Visit every integer point of the hull's bounding box that
    [contains ~eps:1e-6] accepts, one point at a time.  The buffer passed
    to the callback is reused; copy to retain. *)

val iter_rows : t -> (int array -> int -> unit) -> unit
(** The points of {!iter_lattice}, one lattice row at a time: [f p len]
    covers [p] and the [len - 1] points after it along the last axis.
    Each row's interval is solved from {!halfspaces}, widened by one
    cell, then trimmed and extended with [contains ~eps:1e-6]; as that
    test is a conjunction of convex ones, the rows hold exactly
    {!iter_lattice}'s points, at a cost per row rather than per point.
    The buffer [p] is reused; copy to retain. *)

val lattice_count : t -> int
(** Number of integer points inside the hull. *)

type halfspace = {
  coeffs : float array;
  equality : bool;  (** true: [coeffs·x = rhs]; false: [coeffs·x <= rhs] *)
  rhs : float;
}

val halfspaces : t -> halfspace list
(** H-representation: a point is inside the hull iff it satisfies every
    returned constraint (up to a scaled epsilon).  Degenerate hulls emit
    equalities for their lost dimensions — a segment in 2D is one line
    equality plus two extent bounds, a planar polygon in 3D is its plane
    equality plus the lifted edge inequalities. *)

val satisfies_halfspaces : ?eps:float -> halfspace list -> float array -> bool
(** Check the constraint conjunction directly (matches {!contains} on the
    hull the constraints came from). *)

val pp : Format.formatter -> t -> unit
